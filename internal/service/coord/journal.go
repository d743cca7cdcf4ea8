package coord

import (
	"encoding/json"
	"errors"
	"fmt"

	"chipletnet/internal/jsonl"
)

// Lease journal event names. Only lease state is journaled — the work
// itself is reconstructible: a restarted coordinator re-plans the
// campaign against the shared store, and every already-folded record
// resurfaces as a cache hit. The journal's job is to keep granted leases
// valid across the restart and fencing tokens monotonic.
const (
	evGrant     = "grant"      // a shard was leased; carries worker + lease token
	evExpire    = "expire"     // the lease timed out; the shard is pool-bound again
	evShardDone = "shard-done" // every evaluation of the shard is folded
	evFinish    = "finish"     // the campaign completed; its entries are dead
)

// leaseEvent is one line of the lease journal.
type leaseEvent struct {
	C      string // campaign ID (the job ID)
	Ev     string
	Shard  int    `json:",omitempty"`
	Worker string `json:",omitempty"`
	Lease  int    `json:",omitempty"`
}

// leaseLog is the fsynced append-only lease journal — the jobs.jsonl
// discipline applied to lease transitions (see internal/jsonl for the
// shared damage model: torn tails dropped, corrupt lines quarantined).
type leaseLog struct{ *jsonl.Appender }

// openLeaseLog opens (creating if needed) the journal at path and
// returns the replayable events plus the count of quarantined lines.
func openLeaseLog(path string) (*leaseLog, []leaseEvent, int, error) {
	var events []leaseEvent
	quarantined, err := jsonl.Load(path, func(line []byte) error {
		var e leaseEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.C == "" || e.Ev == "" {
			return errors.New("coord: journal line without campaign/event")
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("coord: lease journal %s: %w", path, err)
	}
	a, err := jsonl.OpenAppender(path)
	if err != nil {
		return nil, nil, 0, err
	}
	return &leaseLog{a}, events, quarantined, nil
}

// rewrite atomically replaces the journal with events — the compaction
// path (jsonl.Appender.Rewrite). A crash mid-rewrite leaves either the
// old journal (compacted again next open) or the new one, never a
// half-written mix.
func (l *leaseLog) rewrite(events []leaseEvent) error {
	lines := make([][]byte, len(events))
	for i, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		lines[i] = line
	}
	return l.Rewrite(lines)
}

// record appends one event and syncs it to disk before returning, so a
// lease a worker was told about cannot be lost by a coordinator crash.
func (l *leaseLog) record(e leaseEvent) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return l.Append(line)
}
