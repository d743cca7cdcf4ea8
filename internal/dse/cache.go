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

// cacheLine is the JSONL envelope of one store entry: the content key
// and the gob-encoded Record (json marshals []byte as base64). Gob
// preserves float64 results exactly, so a Record read back from the store
// is bit-identical to the freshly measured one — the property behind
// byte-identical re-run reports.
type cacheLine struct {
	K string
	G []byte
}

// ErrSingleFile reports that a store path names a regular file: a
// single-file cache written before the store became a directory of
// shards. Returned wrapped, with the migration command; test with
// errors.Is.
var ErrSingleFile = errors.New("dse: store path is a single-file cache")

// Store is the content-addressed evaluation store: a map from candidate
// key to Record in ShardN shards by key prefix (ShardIndex), each an
// append-only JSONL file fsynced after every record (jsonl.Appender), or
// memory-only. Beside the shards it keeps the pre-flight verdicts NewPlan
// took, one per routing structure, in a verdict file appended once per
// plan, so a later plan — in this process or another — certifies only
// the structures the store has never seen. OpenStore drops a torn final
// line (a crash mid-append) and quarantines any other corrupt line to a
// .rej sidecar, keeping the later valid entries (see internal/jsonl); a
// later entry for a key overrides an earlier one. Merge unions the
// records of stores populated on different machines. Store is safe for
// concurrent use; each shard, and the verdicts, have their own lock.
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
// into its key's shard. A line that does not decode, or whose envelope key
// disagrees with its record, is quarantined.
func (s *Store) load(path string) error {
	q, err := jsonl.Load(path, func(line []byte) error {
		var cl cacheLine
		if err := json.Unmarshal(line, &cl); err != nil {
			return err
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(cl.G)).Decode(&rec); err != nil {
			return fmt.Errorf("decoding record: %w", err)
		}
		if rec.Key != cl.K {
			return fmt.Errorf("record key %.12s does not match envelope key %.12s", rec.Key, cl.K)
		}
		i, err := ShardIndex(rec.Key)
		if err != nil {
			return err
		}
		s.shards[i].recs[rec.Key] = rec
		return nil
	})
	s.quarantined += q
	return err
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
// survives any crash that follows it.
func (s *Store) Put(rec Record) error {
	i, err := ShardIndex(rec.Key)
	if err != nil {
		return err
	}
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(rec); err != nil {
		return fmt.Errorf("dse: encoding record: %w", err)
	}
	line, err := json.Marshal(cacheLine{K: rec.Key, G: g.Bytes()})
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
