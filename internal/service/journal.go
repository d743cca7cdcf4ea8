package service

import (
	"encoding/json"
	"errors"
	"fmt"

	"chipletnet/internal/jsonl"
)

// Job journal event names. The journal is an append-only JSONL event log
// (one fsynced line per state transition), so the complete job table —
// queue included — is reconstructible after any crash by replaying it.
const (
	evSubmit   = "submit"   // carries the JobSpec
	evStart    = "start"    // a process started the job; carries the cumulative start count
	evRequeue  = "requeue"  // a drain interrupted the job; it goes back to the queue
	evDone     = "done"     // carries the result payload
	evFailed   = "failed"   // terminal failure; carries the error text
	evCanceled = "canceled" // canceled by the client
)

// jobEvent is one line of the job journal.
type jobEvent struct {
	ID       string
	Event    string
	Spec     *JobSpec        `json:",omitempty"`
	Attempts int             `json:",omitempty"`
	Error    string          `json:",omitempty"`
	Result   json.RawMessage `json:",omitempty"`
}

// jobLog is the fsynced append-only event journal. Like every JSONL
// store in this repository it tolerates a torn final line (crash
// mid-append) and quarantines corrupt interior lines to a .rej sidecar
// instead of refusing the file (see internal/jsonl).
type jobLog struct{ *jsonl.Appender }

// openJobLog opens (creating if needed) the journal at path and returns
// the replayable events plus the count of quarantined lines.
func openJobLog(path string) (*jobLog, []jobEvent, int, error) {
	var events []jobEvent
	quarantined, err := jsonl.Load(path, func(line []byte) error {
		var e jobEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.ID == "" || e.Event == "" {
			return errors.New("service: journal line without id/event")
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: job journal %s: %w", path, err)
	}
	a, err := jsonl.OpenAppender(path)
	if err != nil {
		return nil, nil, 0, err
	}
	return &jobLog{a}, events, quarantined, nil
}

// record appends one event and syncs it to disk before returning, so a
// crash immediately after a transition cannot lose it.
func (l *jobLog) record(e jobEvent) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return l.Append(line)
}
