package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"chipletnet/internal/jsonl"
)

// Journal entry statuses.
const (
	StatusDone   = "done"
	StatusFailed = "failed"
)

// JournalEntry is one line of a campaign journal: the outcome of one
// campaign task. Done entries carry the measured points so a resumed
// campaign can emit complete figures without re-running finished work.
type JournalEntry struct {
	Key      string
	Status   string // StatusDone or StatusFailed
	Attempts int
	Error    string  `json:",omitempty"`
	Points   []Point `json:",omitempty"`
}

// Journal is a crash-safe record of campaign progress: an append-only
// JSONL file with one entry per completed or abandoned task, fsynced
// after every record. It is loaded through internal/jsonl like every
// store in the repository: a truncated final line (crash mid-append) is
// dropped and a corrupt interior line is quarantined to a .rej sidecar,
// so its task simply re-runs on resume. A later entry for a key
// overrides an earlier one, so a re-run task simply appends.
type Journal struct {
	log         *jsonl.Appender // nil when memory-only
	entries     map[string]JournalEntry
	quarantined int
}

// OpenJournal opens (creating if needed) the journal at path and loads
// its existing entries, repairing the file as described on Journal. An
// empty path returns a memory-only journal that persists nothing.
func OpenJournal(path string) (*Journal, error) {
	entries := map[string]JournalEntry{}
	if path == "" {
		return &Journal{entries: entries}, nil
	}
	quarantined, err := jsonl.Load(path, func(line []byte) error {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.Key == "" {
			return errors.New("experiments: journal line without key")
		}
		entries[e.Key] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: journal %s: %w", path, err)
	}
	log, err := jsonl.OpenAppender(path)
	if err != nil {
		return nil, err
	}
	return &Journal{log: log, entries: entries, quarantined: quarantined}, nil
}

// Quarantined returns how many corrupt lines OpenJournal moved to the
// .rej sidecar.
func (j *Journal) Quarantined() int { return j.quarantined }

// Record appends one entry and syncs it to disk before returning, so a
// crash immediately after a task finishes cannot lose its outcome.
func (j *Journal) Record(e JournalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if j.log != nil {
		if err := j.log.Append(line); err != nil {
			return err
		}
	}
	j.entries[e.Key] = e
	return nil
}

// Lookup returns the latest journaled entry for key.
func (j *Journal) Lookup(key string) (JournalEntry, bool) {
	e, ok := j.entries[key]
	return e, ok
}

// Done returns the recorded points of key if it is journaled complete.
// Failed entries do not count: a resumed campaign re-runs them.
func (j *Journal) Done(key string) ([]Point, bool) {
	e, ok := j.Lookup(key)
	if !ok || e.Status != StatusDone {
		return nil, false
	}
	return e.Points, true
}

// Close closes the underlying file, if any.
func (j *Journal) Close() error {
	if j.log == nil {
		return nil
	}
	return j.log.Close()
}
