package experiments

import (
	"fmt"
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

// figure is one experiment that yields Points: run computes it whole in
// one batch, tasks splits it along its outermost sweep (per pattern, per
// variant and topology, per bandwidth) so a killed-and-restarted
// campaign only repeats the unfinished slices.
type figure struct {
	name  string
	run   func(Scale) ([]Point, error) // nil: its tasks, one after another
	tasks func(Scale) []Task           // nil: one task running run
}

// figures lists the figure experiments in the order chipletfig runs them.
var figures = []figure{
	{name: "fig11", tasks: func(s Scale) (ts []Task) {
		for _, pat := range Fig11Patterns() {
			ts = append(ts, Task{"fig11/" + pat, "fig11", func() ([]Point, error) { return Fig11(s, pat) }})
		}
		return ts
	}},
	{name: "fig12", run: Fig12, tasks: func(s Scale) (ts []Task) {
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
	{name: "fig13", run: Fig13},
	{name: "fig14", tasks: func(s Scale) (ts []Task) {
		for _, bw := range Fig14Bandwidths() {
			ts = append(ts, Task{fmt.Sprintf("fig14/bw%dflits", bw), "fig14", func() ([]Point, error) { return Fig14(s, bw) }})
		}
		return ts
	}},
	{name: "fig15", run: Fig15},
	{name: "fig16", run: Fig16},
	{name: "ablation", run: AblationRouting},
	{name: "faults", run: FaultTolerance},
	{name: "collective", run: CollectiveStudy},
	{name: "workload", run: WorkloadStudy},
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

func lookup(name string) (figure, error) {
	for _, f := range figures {
		if f.name == name {
			return f, nil
		}
	}
	return figure{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunFigure computes the named figure whole, outside any campaign.
func RunFigure(s Scale, name string) ([]Point, error) {
	f, err := lookup(name)
	switch {
	case err != nil:
		return nil, err
	case f.run != nil:
		return f.run(s)
	}
	var all []Point
	for _, t := range f.tasks(s) {
		pts, err := t.Run()
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	return all, nil
}

// CampaignTasks enumerates the tasks of the named figures at the given
// scale, in a deterministic order with stable keys.
func CampaignTasks(s Scale, names []string) ([]Task, error) {
	var tasks []Task
	for _, name := range names {
		f, err := lookup(name)
		if err != nil {
			return nil, err
		}
		if f.tasks == nil {
			tasks = append(tasks, Task{name, name, func() ([]Point, error) { return f.run(s) }})
			continue
		}
		tasks = append(tasks, f.tasks(s)...)
	}
	return tasks, nil
}
