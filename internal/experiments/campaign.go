package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Task is one independently runnable, independently journaled unit of an
// experiment campaign — a traffic pattern, a bandwidth setting, or a
// whole small figure. Key is the task's stable identity across campaign
// restarts; Figure is the experiment name the points belong to (the
// chipletfig output-file grouping).
type Task struct {
	Key    string
	Figure string
	Run    func() ([]Point, error)
}

// figure is one experiment that yields Points, described by its task
// list: figures with a long outer sweep split along it (per pattern, per
// variant and topology, per bandwidth) so a killed-and-restarted campaign
// only repeats the unfinished slices; the rest are one task (whole).
type figure struct {
	name  string
	tasks func(Scale) []Task
}

// whole is the figure computed by run in one task keyed by its name.
func whole(name string, run func(Scale) ([]Point, error)) figure {
	return figure{name, func(s Scale) []Task {
		return []Task{{name, name, func() ([]Point, error) { return run(s) }}}
	}}
}

// figures lists the figure experiments in the order chipletfig runs them.
var figures = []figure{
	{"fig11", func(s Scale) (ts []Task) {
		for _, pat := range Fig11Patterns() {
			ts = append(ts, Task{"fig11/" + pat, "fig11", func() ([]Point, error) { return Fig11(s, pat) }})
		}
		return ts
	}},
	{"fig12", func(s Scale) (ts []Task) {
		for _, v := range fig12Variants(s) {
			for _, topo := range v.Topos {
				series := seriesName(topo)
				ts = append(ts, Task{"fig12/" + v.Label + "/" + series, "fig12", func() ([]Point, error) {
					cfg := baseConfig(s)
					cfg.ChipletW, cfg.ChipletH = v.NoCW, v.NoCW
					cfg.Topology = topo
					return sweep(s, cfg, "fig12"+v.Label, series)
				}})
			}
		}
		return ts
	}},
	whole("fig13", Fig13),
	{"fig14", func(s Scale) (ts []Task) {
		for _, bw := range Fig14Bandwidths() {
			ts = append(ts, Task{fmt.Sprintf("fig14/bw%dflits", bw), "fig14", func() ([]Point, error) { return Fig14(s, bw) }})
		}
		return ts
	}},
	whole("fig15", Fig15),
	whole("fig16", Fig16),
	whole("ablation", AblationRouting),
	whole("faults", FaultTolerance),
	whole("collective", CollectiveStudy),
	whole("workload", WorkloadStudy),
}

// Names lists every experiment chipletfig accepts, in the order it runs
// them: Table I, then the figures.
func Names() []string {
	names := []string{"table1"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	return names
}

// Select expands "all" and checks every name against Names before
// anything runs. It returns the wanted experiments once each, in Names
// order.
func Select(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no experiments given; want %s|all", strings.Join(Names(), "|"))
	}
	known := map[string]bool{"all": true}
	for _, name := range Names() {
		known[name] = true
	}
	want := map[string]bool{}
	for _, a := range args {
		if !known[a] {
			return nil, fmt.Errorf("unknown experiment %q", a)
		}
		want[a] = true
	}
	var out []string
	for _, name := range Names() {
		if want[name] || want["all"] {
			out = append(out, name)
		}
	}
	return out, nil
}

// CampaignTasks enumerates the tasks of the named figures at the given
// scale, in a deterministic order with stable keys.
func CampaignTasks(s Scale, names []string) ([]Task, error) {
	var tasks []Task
	for _, name := range names {
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == name })
		if i < 0 {
			return nil, fmt.Errorf("experiments: unknown experiment %q", name)
		}
		tasks = append(tasks, figures[i].tasks(s)...)
	}
	return tasks, nil
}
