package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// traceFormat is the magic the header's "format" field must carry.
const traceFormat = "chipletnet-trace"

// header is the first line of a native trace file. Carrying the entry
// count up front is what makes truncation detectable: unlike the
// append-only JSONL stores (internal/jsonl), a trace is written whole,
// so a short file is damage, not a crash-mid-append to forgive.
type header struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Endpoints int    `json:"endpoints"`
	Entries   int    `json:"entries"`
}

// Encode writes the trace in the native format: one header line followed
// by one JSON line per entry. The output is byte-deterministic for a
// given trace.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Format:    traceFormat,
		Version:   FormatVersion,
		Endpoints: t.Endpoints,
		Entries:   len(t.Entries),
	}); err != nil {
		return err
	}
	for i := range t.Entries {
		if err := enc.Encode(&t.Entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a native trace, strictly: a bad header is ErrNotTrace (or
// ErrVersion), fewer entries than the header declares is ErrTruncated —
// including a torn final line — and any interior damage or invariant
// violation is ErrCorrupt. All are typed; none panic.
func Decode(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(data, []byte("\n"))
	// Drop trailing empty fragments (the final newline splits into one).
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w: empty file", ErrNotTrace)
	}
	var h header
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Format != traceFormat {
		return nil, fmt.Errorf("%w: bad header line", ErrNotTrace)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrVersion, h.Version, FormatVersion)
	}
	if h.Entries < 0 {
		return nil, fmt.Errorf("%w: negative entry count %d", ErrCorrupt, h.Entries)
	}
	body := lines[1:]
	if len(body) < h.Entries {
		return nil, fmt.Errorf("%w: header declares %d entries, file holds %d", ErrTruncated, h.Entries, len(body))
	}
	if len(body) > h.Entries {
		return nil, fmt.Errorf("%w: header declares %d entries, file holds %d", ErrCorrupt, h.Entries, len(body))
	}
	t := &Trace{Version: h.Version, Endpoints: h.Endpoints, Entries: make([]Entry, h.Entries)}
	for i, line := range body {
		if err := json.Unmarshal(line, &t.Entries[i]); err != nil {
			if i == len(body)-1 {
				// A torn final line is the truncation signature: the tail
				// of the last entry never made it to disk.
				return nil, fmt.Errorf("%w: torn final entry line", ErrTruncated)
			}
			return nil, fmt.Errorf("%w: entry line %d: %v", ErrCorrupt, i, err)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile writes the trace atomically (temp file + sync + rename, the
// internal/checkpoint idiom), so a crash mid-write never leaves a
// half-trace under the final name.
func WriteFile(path string, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := t.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and validates a native trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
