package cli

import (
	"fmt"
	"strconv"
	"strings"

	"chipletnet"
)

// splitList splits a comma-separated value, dropping blank entries; a blank
// value is nil (a list flag's "use the default" value).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseNoC parses an on-chiplet NoC size "WxH".
func parseNoC(s string) (w, h int, err error) {
	ws, hs, ok := strings.Cut(strings.ToLower(s), "x")
	if ok {
		if w, err = strconv.Atoi(ws); err == nil {
			h, err = strconv.Atoi(hs)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("want WxH, got %q", s)
	}
	return w, h, nil
}

// Kills parses "cycle:a-b[,cycle:a-b...]" into a kill schedule.
func Kills(s string) ([]chipletnet.FaultKill, error) {
	var out []chipletnet.FaultKill
	for _, part := range strings.Split(s, ",") {
		cycle, a, b, rest, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%q: want cycle:a-b", part)
		}
		out = append(out, chipletnet.FaultKill{Cycle: cycle, A: a, B: b})
	}
	return out, nil
}

// Degrades parses "cycle:a-b:bwdiv[:latmult][,...]" into a derating
// schedule; latmult defaults to 1 (bandwidth-only derating).
func Degrades(s string) ([]chipletnet.FaultDegrade, error) {
	var out []chipletnet.FaultDegrade
	for _, part := range strings.Split(s, ",") {
		cycle, a, b, rest, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		if len(rest) < 1 || len(rest) > 2 {
			return nil, fmt.Errorf("%q: want cycle:a-b:bwdiv[:latmult]", part)
		}
		d := chipletnet.FaultDegrade{Cycle: cycle, A: a, B: b, LatencyMult: 1}
		if d.BandwidthDiv, err = strconv.Atoi(rest[0]); err != nil {
			return nil, fmt.Errorf("%q: bad bandwidth divisor: %v", part, err)
		}
		if len(rest) == 2 {
			if d.LatencyMult, err = strconv.Atoi(rest[1]); err != nil {
				return nil, fmt.Errorf("%q: bad latency multiplier: %v", part, err)
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// parseEvent splits one "cycle:a-b[:extra...]" schedule entry.
func parseEvent(s string) (cycle int64, a, b int, rest []string, err error) {
	fields := strings.Split(strings.TrimSpace(s), ":")
	if len(fields) < 2 {
		return 0, 0, 0, nil, fmt.Errorf("%q: want cycle:a-b", s)
	}
	if cycle, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("%q: bad cycle: %v", s, err)
	}
	ab := strings.Split(fields[1], "-")
	if len(ab) != 2 {
		return 0, 0, 0, nil, fmt.Errorf("%q: want node pair a-b", s)
	}
	if a, err = strconv.Atoi(ab[0]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("%q: bad node id: %v", s, err)
	}
	if b, err = strconv.Atoi(ab[1]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("%q: bad node id: %v", s, err)
	}
	return cycle, a, b, fields[2:], nil
}
