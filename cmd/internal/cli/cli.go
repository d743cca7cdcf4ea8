// Package cli is the command-line layer the chipletnet commands share.
// Flags that describe a Config bind straight to its fields; one Parse
// applies the -config overlay and the -engine choice; and the list, NoC
// and fault-schedule parsers, the diagnostics and the indented-JSON
// writer exist once.
package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"chipletnet"
)

// Name prefixes every diagnostic; New sets it.
var Name string

// Logf reports one line on stderr, prefixed with the command name.
func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, Name+": "+format+"\n", args...)
}

// Fatalf reports one line on stderr and exits 1.
func Fatalf(format string, args ...any) {
	Logf(format, args...)
	Exit(1)
}

// Exit writes the profiles -cpuprofile and -memprofile asked for and
// exits with code.
func Exit(code int) {
	StopProfiles()
	os.Exit(code)
}

// stopProfiles finishes the profiles Parse started; nil when none run.
var stopProfiles func()

// StopProfiles stops the CPU profile and writes the allocation profile
// that -cpuprofile and -memprofile asked for, once. Exit and Fatalf call
// it; a command that returns from main defers it.
func StopProfiles() {
	if stop := stopProfiles; stop != nil {
		stopProfiles = nil
		stop()
	}
}

// WriteJSON writes v to stdout as indented JSON.
func WriteJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// FlagSet is one command's flags: a flag.FlagSet plus what Parse applies
// after parsing.
type FlagSet struct {
	*flag.FlagSet
	cfg    *chipletnet.Config // the Config -config loads into
	file   string             // the -config path
	engine *string            // the -engine value; nil without -engine
	bad    error              // the value a Bind flag rejected
	// cpuProfile and memProfile are the -cpuprofile and -memprofile paths.
	cpuProfile, memProfile string
}

// New returns the flag set of the named command, which also becomes the
// prefix of its diagnostics.
func New(name string) *FlagSet {
	Name = name
	return &FlagSet{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
}

// Bind registers a flag that set parses and get shows (nil: no
// default). Parse reports a value set rejects as one diagnostic line,
// "bad -name: ...", instead of the flag package's usage text.
func (f *FlagSet) Bind(name, usage string, get func() string, set func(string) error) {
	f.Var(funcValue{get, func(s string) error {
		err := set(s)
		if err != nil {
			f.bad = fmt.Errorf("bad -%s: %v", name, err)
		}
		return err
	}}, name, usage)
}

type funcValue struct {
	get func() string
	set func(string) error
}

func (v funcValue) String() string {
	if v.get == nil {
		return ""
	}
	return v.get()
}

func (v funcValue) Set(s string) error { return v.set(s) }

// IntsVar binds a comma-separated int list to p.
func (f *FlagSet) IntsVar(p *[]int, name, usage string) {
	bindList(f, p, name, usage, strconv.Itoa, strconv.Atoi)
}

// FloatsVar binds a comma-separated float list to p.
func (f *FlagSet) FloatsVar(p *[]float64, name, usage string) {
	bindList(f, p, name, usage,
		func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) },
		func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// ListVar binds a comma-separated string list to p.
func (f *FlagSet) ListVar(p *[]string, name, usage string) {
	bindList(f, p, name, usage,
		func(s string) string { return s },
		func(s string) (string, error) { return s, nil })
}

// NoCsVar binds a comma-separated list of WxH NoC sizes to p.
func (f *FlagSet) NoCsVar(p *[][2]int, name, usage string) {
	bindList(f, p, name, usage,
		func(wh [2]int) string { return fmt.Sprintf("%dx%d", wh[0], wh[1]) },
		func(s string) ([2]int, error) {
			w, h, err := parseNoC(s)
			return [2]int{w, h}, err
		})
}

func bindList[T any](f *FlagSet, p *[]T, name, usage string, show func(T) string, parse func(string) (T, error)) {
	f.Bind(name, usage,
		func() string {
			parts := make([]string, len(*p))
			for i, x := range *p {
				parts[i] = show(x)
			}
			return strings.Join(parts, ",")
		},
		func(s string) (err error) {
			*p, err = parseList(s, parse)
			return err
		})
}

// Topology binds -topology, -dims and -noc to cfg.
func (f *FlagSet) Topology(cfg *chipletnet.Config) {
	f.StringVar(&cfg.Topology.Kind, "topology", cfg.Topology.Kind,
		"mesh | ndmesh | ndtorus | hypercube | dragonfly | tree | custom")
	f.IntsVar(&cfg.Topology.Dims, "dims",
		"topology dimensions, comma separated (custom: n,a0,b0,a1,b1,... edge list; see chipletnet.Topology)")
	f.Bind("noc", "on-chiplet NoC size `WxH`",
		func() string { return fmt.Sprintf("%dx%d", cfg.ChipletW, cfg.ChipletH) },
		func(s string) (err error) {
			cfg.ChipletW, cfg.ChipletH, err = parseNoC(s)
			return err
		})
}

// Routing binds -routing to cfg. "compiled" is duato on certified tables;
// every other mode clears CompiledRouting, also over a -config file.
func (f *FlagSet) Routing(cfg *chipletnet.Config) {
	f.Bind("routing", "duato | safe-unsafe | compiled (duato on certified tables)",
		func() string {
			if cfg.CompiledRouting {
				return "compiled"
			}
			return string(cfg.Routing)
		},
		func(s string) error {
			cfg.Routing, cfg.CompiledRouting = chipletnet.RoutingMode(s), s == "compiled"
			if cfg.CompiledRouting {
				cfg.Routing = chipletnet.RoutingDuato
			}
			return nil
		})
}

// ConfigFile registers -config: Parse loads the named file into cfg and
// then applies the flags the command line set over it.
func (f *FlagSet) ConfigFile(cfg *chipletnet.Config) {
	f.cfg = cfg
	f.StringVar(&f.file, "config", "", "load a JSON config file (flags still override)")
}

// Engine registers -engine; Parse installs the chosen cycle engine.
func (f *FlagSet) Engine() {
	f.engine = f.String("engine", "active",
		"cycle engine: active | reference | islands[:K] (bit-identical results; active steps the busy cycles of a lone run on all CPUs, reference is the slow oracle for bisecting engine bugs, islands steps every cycle of K partitions in parallel)")
}

// Profile registers -cpuprofile and -memprofile: Parse starts the CPU
// profile, and StopProfiles (through Exit or Fatalf, or deferred in
// main) writes both files.
func (f *FlagSet) Profile() {
	f.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the command to `file`")
	f.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to `file` when the command ends")
}

// startProfiles starts the CPU profile and arms StopProfiles.
func (f *FlagSet) startProfiles() error {
	if f.cpuProfile == "" && f.memProfile == "" {
		return nil
	}
	var cpu *os.File
	if f.cpuProfile != "" {
		fh, err := os.Create(f.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return err
		}
		cpu = fh
	}
	mem := f.memProfile
	stopProfiles = func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				Logf("-cpuprofile: %v", err)
			}
		}
		if mem != "" {
			if err := writeAllocs(mem); err != nil {
				Logf("-memprofile: %v", err)
			}
		}
	}
	return nil
}

// writeAllocs writes the allocation profile, after a collection so that
// its in-use figures are current, as go test -memprofile does.
func writeAllocs(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(fh, 0); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// IsSet reports whether the command line set the named flag.
func (f *FlagSet) IsSet(name string) (set bool) {
	f.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// usageError is a malformed command line; the flag package has reported
// it together with the usage text.
type usageError struct{ error }

// Parse parses args, installs the -engine choice and, with -config,
// loads the file and parses args again over it, so exactly the flags the
// user set override the file. Last it starts the -cpuprofile. Every error it returns has been reported
// on stderr: flag.ErrHelp and a malformed command line by the flag
// package, anything else as one diagnostic line.
func (f *FlagSet) Parse(args []string) error {
	var out bytes.Buffer
	f.SetOutput(&out)
	err := f.FlagSet.Parse(args)
	f.SetOutput(nil)
	switch {
	case f.bad != nil:
		err = f.bad
	case err != nil:
		os.Stderr.Write(out.Bytes())
		if err != flag.ErrHelp {
			err = usageError{err}
		}
		return err
	case f.engine != nil:
		err = chipletnet.SetEngine(*f.engine)
	}
	if err == nil && f.file != "" {
		if err = f.load(); err == nil {
			err = f.FlagSet.Parse(args)
		}
	}
	if err == nil {
		err = f.startProfiles()
	}
	if err != nil {
		Logf("%v", err)
	}
	return err
}

func (f *FlagSet) load() error {
	fh, err := os.Open(f.file)
	if err != nil {
		return err
	}
	defer fh.Close()
	*f.cfg, err = chipletnet.LoadConfig(fh)
	return err
}

// MustParse parses the command line and exits on error: 0 after -h and 2
// for a malformed command line, as flag.ExitOnError does, and 1 for
// anything else (a rejected value, a -config file that does not load, an
// unknown engine).
func (f *FlagSet) MustParse() {
	err := f.Parse(os.Args[1:])
	var usage usageError
	switch {
	case err == nil:
		return
	case err == flag.ErrHelp:
		os.Exit(0)
	case errors.As(err, &usage):
		os.Exit(2)
	}
	os.Exit(1)
}
