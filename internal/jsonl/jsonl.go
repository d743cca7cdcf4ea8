// Package jsonl is the shared loader for the repository's append-only
// JSONL stores (the DSE evaluation cache shards and verdict file, the
// daemon job journal, the coordinator lease journal, the experiment
// campaign journal) and for imported external traces. The stores follow
// the same crash-safety idiom — append a line or a batch of lines, fsync,
// return — so they share one damage model and one repair:
//
//   - A final line without a trailing newline is the signature of a crash
//     mid-append. The entry was never acknowledged, so it is dropped.
//   - Any other unparseable line is real corruption (bit rot, a partial
//     write glued onto a later append, an editor accident). Instead of
//     refusing the whole file — or worse, silently losing every valid
//     entry after the first bad line — the bad lines are quarantined to a
//     `<file>.rej` sidecar and loading continues with the later entries.
//
// After quarantine the store file is rewritten atomically (Rewrite: temp
// file + sync + rename, the internal/checkpoint idiom) containing only
// the valid lines, so appends resume on a clean file and a re-open
// quarantines nothing. Stores that compact themselves use Rewrite too.
//
// The write half is Appender: every store opens one after Load and
// appends through it, so the append-and-fsync discipline lives here once.
package jsonl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Appender is the durable write handle of a JSONL store: each Append
// writes one line and fsyncs it before returning, so an acknowledged
// entry survives any crash that follows; AppendAll does the same for
// several lines with one write and one fsync. A crash mid-write loses
// only the tail of what was being written: whole lines that reached the
// file before the cut load normally, and Load drops the torn final line,
// so neither a line nor a batch is ever acknowledged and then lost.
// Appender is safe for concurrent use; a store that also keeps an
// in-memory index holds its own lock across Append so the file order and
// the index order agree.
type Appender struct {
	mu   sync.Mutex
	path string
	f    *os.File
	buf  []byte // line + '\n', reused so each Append is one write
}

// OpenAppender opens (creating if needed) the store at path for
// appending. Open it after Load, which repairs a damaged tail, so appends
// start on a clean line.
func OpenAppender(path string) (*Appender, error) {
	f, err := openAppend(path)
	if err != nil {
		return nil, err
	}
	return &Appender{path: path, f: f}, nil
}

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Append writes line and a newline in one write, then fsyncs.
func (a *Appender) Append(line []byte) error {
	return a.AppendAll([][]byte{line})
}

// AppendAll writes every line, each with its newline, in one write, then
// fsyncs once: the batch costs one fsync however many lines it holds.
func (a *Appender) AppendAll(lines [][]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf = a.buf[:0]
	for _, line := range lines {
		a.buf = append(append(a.buf, line...), '\n')
	}
	if _, err := a.f.Write(a.buf); err != nil {
		return err
	}
	return a.f.Sync()
}

// Rewrite atomically replaces the store with lines (see the package-level
// Rewrite) and reopens the append handle on the new file, so later
// appends land after lines and not in the renamed-away original.
func (a *Appender) Rewrite(lines [][]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := Rewrite(a.path, lines); err != nil {
		return err
	}
	f, err := openAppend(a.path)
	if err != nil {
		return err
	}
	a.f.Close() // every append through it was already synced
	a.f = f
	return nil
}

// Close closes the append handle.
func (a *Appender) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Close()
}

// Load reads the append-only JSONL file at path and feeds every non-empty
// line to accept in file order. Lines accept rejects are quarantined to
// path+".rej"; a torn final line (crash mid-append) is dropped silently.
// If anything was dropped or quarantined, the file is rewritten in place
// (atomically) with only the accepted lines. A missing file loads as
// empty. The returned count is the number of quarantined lines.
func Load(path string, accept func(line []byte) error) (quarantined int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(data) == 0 {
		return 0, nil
	}
	// A file not ending in '\n' lost the tail of its final append; the
	// entry was never acknowledged to its writer, so dropping it is not
	// data loss. The split below leaves the torn fragment as the last
	// element; cutting it here keeps it out of both the load and the
	// quarantine sidecar.
	torn := data[len(data)-1] != '\n'
	lines := bytes.Split(data, []byte("\n"))
	if torn {
		lines = lines[:len(lines)-1]
	}

	var valid, bad [][]byte
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if accept(line) != nil {
			bad = append(bad, line)
			continue
		}
		valid = append(valid, line)
	}
	quarantined = len(bad)
	if quarantined > 0 {
		if err := quarantine(path+".rej", bad); err != nil {
			return quarantined, fmt.Errorf("jsonl: quarantining %d corrupt lines of %s: %w", quarantined, path, err)
		}
	}
	if quarantined > 0 || torn {
		if err := Rewrite(path, valid); err != nil {
			return quarantined, fmt.Errorf("jsonl: repairing %s: %w", path, err)
		}
	}
	return quarantined, nil
}

// quarantine appends lines to the .rej sidecar at path, skipping lines
// the sidecar already holds byte-for-byte. Quarantine must be idempotent:
// a crash between sidecar append and store repair — or any other reason
// the same corrupt lines are loaded twice — must not duplicate sidecar
// entries, or the evidence file grows without bound and "how much is
// damaged" becomes unanswerable.
func quarantine(path string, lines [][]byte) error {
	seen := map[string]bool{}
	if prev, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(prev, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				seen[string(line)] = true
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var fresh [][]byte
	for _, line := range lines {
		if seen[string(line)] {
			continue
		}
		seen[string(line)] = true // dedupe within the batch too
		fresh = append(fresh, line)
	}
	if len(fresh) == 0 {
		return nil
	}
	a, err := OpenAppender(path)
	if err != nil {
		return err
	}
	if err := a.AppendAll(fresh); err != nil {
		a.Close()
		return err
	}
	return a.Close()
}

// Rewrite atomically replaces path with the given lines: the bytes go to
// a temp file in the same directory, are synced, and renamed over path,
// so a crash mid-repair leaves either the damaged original (repaired
// again on the next open) or the clean result — never a half-rewrite.
func Rewrite(path string, lines [][]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, line := range lines {
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			tmp.Close()
			return err
		}
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
