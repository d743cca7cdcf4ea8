package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type entry struct {
	K string
	V int
}

// loadEntries runs Load with a JSON-into-entry acceptor requiring a
// non-empty key, returning the accepted entries in order.
func loadEntries(t *testing.T, path string) ([]entry, int) {
	t.Helper()
	var out []entry
	q, err := Load(path, func(line []byte) error {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.K == "" {
			return os.ErrInvalid
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, q
}

func write(t *testing.T, path string, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	got, q := loadEntries(t, filepath.Join(t.TempDir(), "absent.jsonl"))
	if len(got) != 0 || q != 0 {
		t.Errorf("missing file loaded %d entries, %d quarantined", len(got), q)
	}
}

// TestLoadCorruptionMatrix walks every damage class in one file: clean
// lines, interior garbage, a structurally-valid-but-rejected line, blank
// lines, and a torn tail. Valid entries after the corruption must
// survive; the bad lines land in the sidecar; the repaired file reloads
// with zero further quarantine.
func TestLoadCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	write(t, path,
		`{"K":"a","V":1}`+"\n"+
			"!!not json!!\n"+
			`{"K":"b","V":2}`+"\n"+
			"\n"+
			`{"V":3}`+"\n"+ // parses but fails validation (no key)
			`{"K":"c","V":4}`+"\n"+
			`{"K":"d","V":5`) // torn tail: crash mid-append

	got, q := loadEntries(t, path)
	want := []entry{{"a", 1}, {"b", 2}, {"c", 4}}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if q != 2 {
		t.Errorf("quarantined %d lines, want 2 (garbage + keyless)", q)
	}

	// The quarantine sidecar holds exactly the two corrupt lines; the
	// torn tail is dropped, not quarantined.
	rej, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if want := "!!not json!!\n" + `{"V":3}` + "\n"; string(rej) != want {
		t.Errorf("sidecar = %q, want %q", rej, want)
	}

	// The store file was repaired in place: only valid lines remain.
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(clean, []byte("not json")) || clean[len(clean)-1] != '\n' {
		t.Errorf("repaired file still damaged: %q", clean)
	}

	// Idempotence: a second load quarantines nothing and sees the same
	// entries.
	again, q2 := loadEntries(t, path)
	if q2 != 0 {
		t.Errorf("reload quarantined %d lines, want 0", q2)
	}
	if len(again) != len(want) {
		t.Errorf("reload got %d entries, want %d", len(again), len(want))
	}

	// Sidecar idempotence: the same corrupt lines loaded again — e.g. a
	// crash between the sidecar append and the in-place repair left the
	// store file damaged — must not duplicate the sidecar entries.
	appendRaw(t, path, "!!not json!!\n"+`{"V":3}`+"\n"+`{"K":"e","V":6}`+"\n")
	redo, q3 := loadEntries(t, path)
	if q3 != 2 {
		t.Errorf("re-corrupted load quarantined %d lines, want 2", q3)
	}
	if len(redo) != len(want)+1 {
		t.Errorf("re-corrupted load got %d entries, want %d", len(redo), len(want)+1)
	}
	rej2, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rej2, rej) {
		t.Errorf("sidecar grew on repeated identical corruption:\n before %q\n after  %q", rej, rej2)
	}

	// A genuinely new corrupt line still lands in the sidecar.
	appendRaw(t, path, "!!different garbage!!\n")
	if _, q4 := loadEntries(t, path); q4 != 1 {
		t.Errorf("novel corruption quarantined %d lines, want 1", q4)
	}
	rej3, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if want := string(rej) + "!!different garbage!!\n"; string(rej3) != want {
		t.Errorf("sidecar after novel corruption = %q, want %q", rej3, want)
	}
}

func appendRaw(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTornTailOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	write(t, path, `{"K":"a","V":1}`+"\n"+`{"K":"b"`)

	got, q := loadEntries(t, path)
	if len(got) != 1 || got[0].K != "a" || q != 0 {
		t.Errorf("got %v (quarantined %d), want just entry a with 0 quarantined", got, q)
	}
	if _, err := os.Stat(path + ".rej"); !os.IsNotExist(err) {
		t.Error("torn tail must not create a quarantine sidecar")
	}
	// Repair truncated the torn fragment so appends start clean.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"K":"a","V":1}`+"\n" {
		t.Errorf("repaired file = %q", data)
	}
}

func openAppender(t *testing.T, path string) *Appender {
	t.Helper()
	a, err := OpenAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func appendLine(t *testing.T, a *Appender, line string) {
	t.Helper()
	if err := a.Append([]byte(line)); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestAppendSurvivesReopen: appended entries are on disk after Close and
// load back, in order, through Load; a second appender on the same file
// continues after them.
func TestAppendSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a := openAppender(t, path)
	appendLine(t, a, `{"K":"a","V":1}`)
	appendLine(t, a, `{"K":"b","V":2}`)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, q := loadEntries(t, path); len(got) != 2 || got[0] != (entry{"a", 1}) || got[1] != (entry{"b", 2}) || q != 0 {
		t.Fatalf("reloaded %v (quarantined %d), want [a b]", got, q)
	}

	a = openAppender(t, path)
	appendLine(t, a, `{"K":"c","V":3}`)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := loadEntries(t, path); len(got) != 3 || got[2] != (entry{"c", 3}) {
		t.Errorf("after reopen loaded %v, want [a b c]", got)
	}
}

// TestAppendAllTornBatch: AppendAll writes its lines back to back, and a
// crash that cuts the batch's one write short loses only its tail: Load
// keeps every whole line before the cut and drops the torn one.
func TestAppendAllTornBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a := openAppender(t, path)
	appendLine(t, a, `{"K":"a","V":1}`)
	batch := [][]byte{[]byte(`{"K":"b","V":2}`), []byte(`{"K":"c","V":3}`), []byte(`{"K":"d","V":4}`)}
	if err := a.AppendAll(batch); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	full := readFile(t, path)
	if want := `{"K":"a","V":1}` + "\n" + `{"K":"b","V":2}` + "\n" + `{"K":"c","V":3}` + "\n" + `{"K":"d","V":4}` + "\n"; full != want {
		t.Fatalf("store = %q, want %q", full, want)
	}
	for _, tc := range []struct {
		cut  int // bytes kept
		want []entry
	}{
		{len(full) - 3, []entry{{"a", 1}, {"b", 2}, {"c", 3}}},
		{len(`{"K":"a","V":1}` + "\n" + `{"K":"b"`), []entry{{"a", 1}}},
	} {
		write(t, path, full[:tc.cut])
		got, q := loadEntries(t, path)
		if !reflect.DeepEqual(got, tc.want) || q != 0 {
			t.Errorf("batch cut after %d bytes loaded %v (quarantined %d), want %v", tc.cut, got, q, tc.want)
		}
	}
}

// TestAppendConcurrent: appends from several goroutines never interleave
// within a line; every entry loads back intact.
func TestAppendConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a := openAppender(t, path)
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.Append([]byte(fmt.Sprintf(`{"K":"w%d","V":%d}`, w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, q := loadEntries(t, path)
	if len(got) != writers*each || q != 0 {
		t.Fatalf("loaded %d entries (quarantined %d), want %d and 0", len(got), q, writers*each)
	}
	next := map[string]int{}
	for _, e := range got {
		if e.V != next[e.K] {
			t.Fatalf("writer %s: entry %d out of order (want %d)", e.K, e.V, next[e.K])
		}
		next[e.K]++
	}
}

// TestAppendAfterRewrite: Rewrite swaps the append handle onto the new
// file, so the next append follows the rewritten lines and never reaches
// the renamed-away original (kept reachable here through a hard link).
func TestAppendAfterRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	a := openAppender(t, path)
	defer a.Close()
	appendLine(t, a, `{"K":"old","V":1}`)
	old := filepath.Join(dir, "old.jsonl")
	if err := os.Link(path, old); err != nil {
		t.Fatal(err)
	}

	if err := a.Rewrite([][]byte{[]byte(`{"K":"kept","V":2}`)}); err != nil {
		t.Fatal(err)
	}
	appendLine(t, a, `{"K":"new","V":3}`)

	if got, want := readFile(t, path), `{"K":"kept","V":2}`+"\n"+`{"K":"new","V":3}`+"\n"; got != want {
		t.Errorf("rewritten store = %q, want %q", got, want)
	}
	if got, want := readFile(t, old), `{"K":"old","V":1}`+"\n"; got != want {
		t.Errorf("renamed-away original = %q, want %q (append leaked into it)", got, want)
	}
}

// TestAppendAfterTornTailRepair: Load truncates a torn final line, so an
// appender opened afterwards writes on a clean line boundary and the file
// reloads with nothing dropped or quarantined.
func TestAppendAfterTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	write(t, path, `{"K":"a","V":1}`+"\n"+`{"K":"b"`)
	if got, _ := loadEntries(t, path); len(got) != 1 {
		t.Fatalf("loaded %v, want just a", got)
	}
	a := openAppender(t, path)
	appendLine(t, a, `{"K":"c","V":3}`)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), `{"K":"a","V":1}`+"\n"+`{"K":"c","V":3}`+"\n"; got != want {
		t.Errorf("store = %q, want %q", got, want)
	}
	if got, q := loadEntries(t, path); len(got) != 2 || q != 0 {
		t.Errorf("reload got %v (quarantined %d), want [a c] and 0", got, q)
	}
	if _, err := os.Stat(path + ".rej"); !os.IsNotExist(err) {
		t.Error("torn-tail repair and append must not create a quarantine sidecar")
	}
}

func TestLoadCleanFileUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	content := `{"K":"a","V":1}` + "\n" + `{"K":"b","V":2}` + "\n"
	write(t, path, content)
	before, _ := os.Stat(path)

	got, q := loadEntries(t, path)
	if len(got) != 2 || q != 0 {
		t.Fatalf("got %d entries, %d quarantined", len(got), q)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.ModTime() != after.ModTime() || before.Size() != after.Size() {
		t.Error("clean file was rewritten; repair must only touch damaged files")
	}
}
