package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"chipletnet"
	"chipletnet/internal/jsonl"
	"chipletnet/internal/workload"
)

// keyPayload is the canonical content of one candidate evaluation: the
// fully-resolved configuration plus every evaluation parameter that
// shapes the Record. The cycle-engine choice (chipletnet.
// UseEngine) is deliberately absent — the engines are bit-identical,
// so their results are interchangeable cache entries.
type keyPayload struct {
	Cfg          chipletnet.Config
	Rates        []float64
	ZeroLoadRate float64
	// WorkloadHash is the content address of the candidate's workload
	// spec (workload.SpecHash): replay traces resolve to the SHA-256 of
	// the trace file's bytes, so editing a trace invalidates every cached
	// evaluation that used it; Cfg.Workload itself is blanked in the
	// payload so the same trace cached under two paths shares one key.
	// Empty (and omitted) for synthetic candidates — pre-QoS keys stay
	// valid.
	WorkloadHash string `json:",omitempty"`
}

// Key returns the content address of evaluating cfg under p: the hex
// SHA-256 of the JSON encoding of the fully-resolved payload. JSON —
// not gob — because gob wire type IDs are assigned from a
// process-global counter in first-use order, so a gob-based hash
// changes depending on what else the process happened to gob-encode
// first (a checkpoint written by an earlier job shifted every
// subsequent key). JSON marshals struct fields in declaration order
// with shortest-round-trip floats and Config contains no maps, so the
// byte stream — and therefore the key — is stable across runs,
// processes and machines.
func Key(cfg chipletnet.Config, p Params) string {
	p = p.normalize()
	wh, err := workload.SpecHash(cfg.Workload)
	if err != nil {
		// An unreadable trace cannot be content-addressed; key it by the
		// spec string so planning proceeds and the evaluation itself
		// reports the real error.
		wh = "unreadable:" + cfg.Workload
	}
	cfg.Workload = ""
	payload, err := json.Marshal(keyPayload{
		Cfg:          cfg,
		Rates:        p.Rates,
		ZeroLoadRate: p.ZeroLoadRate,
		WorkloadHash: wh,
	})
	if err != nil {
		// Config and Params are plain data; json cannot fail on them.
		panic(fmt.Sprintf("dse: hashing candidate: %v", err))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// cacheLine is one store line: the content key K and the Record R, as
// plain JSON. encoding/json writes every float64 in its shortest
// round-trip form, so a Record read back is bit-identical to the freshly
// measured one — the property behind byte-identical re-run reports. Put
// refuses a record the line cannot hold exactly (see encodeLine); record()
// never builds one. K duplicates R.Key on purpose: a key is the
// only field nothing else in the line can check, so a line whose two
// copies disagree is rot, not a record filed under another candidate's
// address.
//
// G is the legacy form, read but never written: a gob-encoded Record
// (base64 in JSON), whose decoder must be built per line. chipletdse
// -merge rewrites such a store in the current form.
type cacheLine struct {
	K string
	R *Record `json:",omitempty"`
	G []byte  `json:",omitempty"`
}

// ErrSingleFile reports that a store path names a regular file: a
// single-file cache written before the store became a directory of
// shards. Returned wrapped, with the migration command; test with
// errors.Is.
var ErrSingleFile = errors.New("dse: store path is a single-file cache")

// Store is the content-addressed evaluation store: a map from candidate
// key to Record in ShardN shards by key prefix (ShardIndex), each an
// append-only JSONL file of plain-JSON records (cacheLine) fsynced after
// every record (jsonl.Appender), or memory-only. Beside the shards it
// keeps the pre-flight verdicts NewPlan took, one per routing structure,
// in a verdict file appended once per plan, so a later plan — in this
// process or another — certifies only the structures the store has never
// seen. OpenStore drops a torn final line (a crash mid-append) and
// quarantines any other corrupt line to a .rej sidecar, keeping the later
// valid entries (see internal/jsonl); a later entry for a key overrides
// an earlier one. It also reads legacy gob lines; Merge, which unions the
// records of stores populated on different machines, writes them back in
// the current form. Store is safe for concurrent use; each shard, and the
// verdicts, have their own lock.
type Store struct {
	shards      [ShardN]shard
	quarantined int // corrupt lines moved to .rej sidecars at open

	verdictMu  sync.Mutex      // held across the append, as for a shard
	verdictLog *jsonl.Appender // nil when memory-only
	verdicts   map[verdictKey]verdict
}

// shard is one key-prefix slice of a Store.
type shard struct {
	mu   sync.Mutex      // held across Append so file and recs agree on order
	log  *jsonl.Appender // nil when memory-only
	recs map[string]Record
}

func newStore() *Store {
	s := &Store{verdicts: map[verdictKey]verdict{}}
	for i := range s.shards {
		s.shards[i].recs = map[string]Record{}
	}
	return s
}

// OpenStore opens (creating if needed) the store rooted at directory dir
// and loads every shard, healing crash and corruption damage in place.
// An empty dir returns a memory-only store. A regular file at dir is
// refused with ErrSingleFile: chipletdse -merge migrates it.
func OpenStore(dir string) (*Store, error) {
	s := newStore()
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		if fi, serr := os.Stat(filepath.Clean(dir)); serr == nil && fi.Mode().IsRegular() {
			return nil, fmt.Errorf("%w: %s; migrate it with: chipletdse -cache DIR/ -merge %s", ErrSingleFile, dir, dir)
		}
		return nil, fmt.Errorf("dse: store: %w", err)
	}
	for i := range s.shards {
		path := filepath.Join(dir, shardFile(i))
		err := s.load(path)
		if err == nil {
			s.shards[i].log, err = jsonl.OpenAppender(path)
		}
		if err != nil {
			s.Close() // release the shards already opened
			return nil, fmt.Errorf("dse: store %s: %w", dir, err)
		}
	}
	path := filepath.Join(dir, verdictFile)
	err := s.loadVerdicts(path)
	if err == nil {
		s.verdictLog, err = jsonl.OpenAppender(path)
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("dse: store %s: %w", dir, err)
	}
	return s, nil
}

// ReadCacheFile reads a single-file cache — the layout before the store
// became a directory of shards — into a memory-only Store, with the same
// line decoder and healing as OpenStore. Merging the result into a
// directory store migrates the old cache.
func ReadCacheFile(path string) (*Store, error) {
	s := newStore()
	if err := s.load(path); err != nil {
		return nil, fmt.Errorf("dse: cache %s: %w", path, err)
	}
	return s, nil
}

// load reads the JSONL file at path into s (see jsonl.Load), each record
// into its key's shard. A line decodeLine refuses is quarantined.
func (s *Store) load(path string) error {
	q, err := jsonl.Load(path, func(line []byte) error {
		rec, err := decodeLine(line)
		if err != nil {
			return err
		}
		i, _ := ShardIndex(rec.Key) // decodeLine checked it
		s.shards[i].recs[rec.Key] = rec
		return nil
	})
	s.quarantined += q
	return err
}

// encodeLine returns the store line of rec. It refuses a record the line
// cannot hold exactly: a NaN or infinite float has no JSON form, and JSON
// replaces bytes that are not UTF-8. So every record a store serves, or
// Merge rewrites, is the one that was put.
func encodeLine(rec Record) ([]byte, error) {
	line, err := json.Marshal(cacheLine{K: rec.Key, R: &rec})
	if err != nil {
		return nil, fmt.Errorf("dse: encoding record: %w", err)
	}
	if back, err := decodeLine(line); err != nil || !reflect.DeepEqual(back, rec) {
		return nil, fmt.Errorf("dse: record %.12s does not survive its JSON form", rec.Key)
	}
	return line, nil
}

// decodeLine returns the record of one store line, in the current form
// or the legacy gob form. It refuses a line that holds neither form or
// both, whose record key disagrees with K or is not hex, or whose legacy
// record encodeLine refuses.
func decodeLine(line []byte) (Record, error) {
	var cl cacheLine
	if err := json.Unmarshal(line, &cl); err != nil {
		return Record{}, err
	}
	var rec Record
	switch {
	case cl.R != nil && cl.G == nil:
		rec = *cl.R
		// Classes is omitempty, so "[]" writes back as no field at all.
		if len(rec.Classes) == 0 {
			rec.Classes = nil
		}
	case cl.G != nil && cl.R == nil:
		if err := gob.NewDecoder(bytes.NewReader(cl.G)).Decode(&rec); err != nil {
			return Record{}, fmt.Errorf("decoding legacy record: %w", err)
		}
		if _, err := encodeLine(rec); err != nil {
			return Record{}, err // Merge could not rewrite it
		}
	default:
		return Record{}, errors.New("line holds neither a record nor a legacy record, or both")
	}
	if rec.Key != cl.K {
		return Record{}, fmt.Errorf("record key %.12s does not match line key %.12s", rec.Key, cl.K)
	}
	if _, err := ShardIndex(rec.Key); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Lookup returns the stored record for key.
func (s *Store) Lookup(key string) (Record, bool) {
	i, err := ShardIndex(key)
	if err != nil {
		return Record{}, false
	}
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.recs[key]
	return rec, ok
}

// Put stores rec in its key's shard and, for an on-disk store, appends
// and fsyncs the entry before returning, so a finished evaluation
// survives any crash that follows it. A record its line cannot hold
// exactly (see encodeLine) is refused, and nothing is stored.
func (s *Store) Put(rec Record) error {
	i, err := ShardIndex(rec.Key)
	if err != nil {
		return err
	}
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.log != nil {
		if err := sh.log.Append(line); err != nil {
			return err
		}
	}
	sh.recs[rec.Key] = rec
	return nil
}

// Records returns every stored record in ascending key order — the
// deterministic enumeration Merge walks.
func (s *Store) Records() []Record {
	var out []Record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.recs {
			out = append(out, rec)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.recs)
		sh.mu.Unlock()
	}
	return n
}

// Quarantined returns how many corrupt lines, in the shards and the
// verdict file, the open moved to .rej sidecars.
func (s *Store) Quarantined() int { return s.quarantined }

// Close closes every shard file and the verdict file, joining any errors
// (a no-op for a memory-only store).
func (s *Store) Close() error {
	var errs []error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.log != nil {
			errs = append(errs, sh.log.Close())
			sh.log = nil
		}
		sh.mu.Unlock()
	}
	s.verdictMu.Lock()
	if s.verdictLog != nil {
		errs = append(errs, s.verdictLog.Close())
		s.verdictLog = nil
	}
	s.verdictMu.Unlock()
	return errors.Join(errs...)
}
