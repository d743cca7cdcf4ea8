package cli_test

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// surface pins every command's flag surface: flag name -> the "(default
// ...)" clauses of its -h entry, unquoted and joined by "|" ("" for a
// flag -h prints no default for). A clause written into a usage text
// counts too, so a flag that gains a non-zero default while its usage
// already names one shows two.
var surface = map[string]map[string]string{
	"chipletsim": {
		"checkcredits": "", "checkpoint": "", "checkpoint-every": "", "config": "",
		"cpuprofile": "", "dims": "6", "drain": "", "dump-config": "", "engine": "active",
		"fault-backoff-max": "", "fault-ber": "", "fault-degrade": "", "fault-kill": "",
		"fault-no-reverify": "", "fault-onchip-ber": "", "fault-timeout": "",
		"interleave": "message", "json": "", "measure": "5000", "memprofile": "", "noc": "4x4",
		"offchip-bw": "2", "offchip-latency": "5", "pattern": "uniform", "rate": "0.1",
		"resume": "", "routing": "duato", "seed": "1", "timeout": "",
		"topology": "hypercube", "vcs": "2", "warmup": "1000", "workload": "",
	},
	"chipletverify": {
		"allow-unsafe": "", "config": "", "dims": "6", "equal-channels": "", "faults": "",
		"json": "", "max-dests": "", "noc": "4x4", "routing": "duato", "seed": "1",
		"topology": "hypercube", "vcs": "2",
	},
	"topoviz": {
		"chiplet": "", "dims": "6", "noc": "4x4", "sim": "", "topology": "hypercube",
	},
	"chipletdse": {
		"cache": "", "chiplets": "16", "cpuprofile": "", "engine": "active",
		"interleave": "none,message,packet", "json": "", "max-ports": "", "measure": "1500",
		"memprofile": "", "merge": "", "min-group-width": "",
		"noc": "4x4", "offchip-bw": "2", "out": "", "pattern": "uniform", "pin-budget": "",
		"rates": "0.05,0.15,0.3,0.5,0.8", "routing": "all: mfr,adaptive,equal-channel",
		"seed": "1", "topologies": "all: mesh,ndmesh,ndtorus,hypercube,dragonfly,tree",
		"tree-fanouts": "2,3,4", "v": "", "warmup": "300", "workloads": "",
		"zero-load-rate": "0.02",
	},
	"chipletfig": {
		"engine": "active", "journal": "", "out": "", "replot": "", "resume": "",
		"scale": "quick",
	},
	"chipletd": {
		"addr": "127.0.0.1:8080", "backoff-base": "100ms", "backoff-cap": "5s",
		"checkpoint-every": "2000", "coordinator": "", "dir": "chipletd-state",
		"engine": "active", "grace": "1m0s", "heartbeat": "1s", "heartbeat-ttl": "10s",
		"job-timeout": "", "join": "", "worker": "", "worker-id": "",
		"workers": "1",
	},
}

var (
	flagLine      = regexp.MustCompile(`^  -(\S+)`)
	defaultClause = regexp.MustCompile(`\(default ([^)]*)\)`)
)

// helpSurface parses flag.PrintDefaults output into the surface format.
func helpSurface(help string) map[string]string {
	got := map[string]string{}
	name := ""
	for _, line := range strings.Split(help, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			name = m[1]
			got[name] = ""
		}
		if name == "" {
			continue
		}
		for _, c := range defaultClause.FindAllStringSubmatch(line, -1) {
			v := c[1]
			if u, err := strconv.Unquote(v); err == nil {
				v = u
			}
			if got[name] != "" {
				v = got[name] + "|" + v
			}
			got[name] = v
		}
	}
	return got
}

// TestFlagSurface builds the six commands and checks that each one's -h
// lists exactly the pinned flag names with the pinned defaults.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six commands")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for name := range surface {
		args = append(args, "chipletnet/cmd/"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, want := range surface {
		help, _ := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput() // -h exits 0, or 1 for chipletd
		if got := helpSurface(string(help)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s -h flag surface changed:\n got %v\nwant %v\n-h output:\n%s", name, got, want, help)
		}
	}
}
