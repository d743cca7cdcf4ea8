package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
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

// Store is the evaluation-store interface the planner and the campaign
// daemon consume. The single-file Cache and the ShardedCache both
// implement it; Merge unions any mix of the two.
type Store interface {
	// Lookup returns the cached record for key.
	Lookup(key string) (Record, bool)
	// Put persists rec under rec.Key durably before returning.
	Put(rec Record) error
	// Records returns every cached record in ascending key order — the
	// deterministic enumeration Merge walks.
	Records() []Record
	// Len returns the number of cached records.
	Len() int
	// Quarantined returns how many corrupt lines the open moved to the
	// .rej sidecar(s) (see internal/jsonl).
	Quarantined() int
	// Close releases the underlying file(s).
	Close() error
}

// cacheLine is the JSONL envelope of one cache entry: the content key
// and the gob-encoded Record (json marshals []byte as base64). Gob preserves float64 results
// exactly, so a Record read back from the cache is bit-identical to the
// freshly measured one — the property behind byte-identical re-run
// reports.
type cacheLine struct {
	K string
	G []byte
}

// Cache is the content-addressed evaluation store: a map from candidate
// key to Record, persisted as an append-only JSONL file fsynced after
// every record (jsonl.Appender, shared with every journal).
// A process killed mid-append leaves at most one torn final line, which
// OpenCache drops from the file before appending resumes; any other
// corrupt line is quarantined to a .rej sidecar and the later valid
// entries are kept (self-healing reads; see internal/jsonl). A later
// entry for a key overrides an earlier one. With an empty path the cache
// is memory-only.
//
// Cache is safe for concurrent use; cmd/chipletdse and the campaign
// daemon record from worker pools.
type Cache struct {
	mu          sync.Mutex      // held across Append so file and recs agree on order
	log         *jsonl.Appender // nil when memory-only
	recs        map[string]Record
	quarantined int
}

// OpenCache opens (creating if needed) the cache at path and loads its
// entries, healing crash and corruption damage in place. An empty path
// returns a memory-only cache.
func OpenCache(path string) (*Cache, error) {
	c := &Cache{recs: map[string]Record{}}
	if path == "" {
		return c, nil
	}
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
		c.recs[cl.K] = rec
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dse: cache %s: %w", path, err)
	}
	c.quarantined = q
	if c.log, err = jsonl.OpenAppender(path); err != nil {
		return nil, err
	}
	return c, nil
}

// Lookup returns the cached record for key.
func (c *Cache) Lookup(key string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[key]
	return rec, ok
}

// Put stores rec under rec.Key and, for a file-backed cache, appends and
// fsyncs the entry before returning, so a finished evaluation survives
// any crash that follows it.
func (c *Cache) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("dse: refusing to cache a record with no key")
	}
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(rec); err != nil {
		return fmt.Errorf("dse: encoding record: %w", err)
	}
	line, err := json.Marshal(cacheLine{K: rec.Key, G: g.Bytes()})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log != nil {
		if err := c.log.Append(line); err != nil {
			return err
		}
	}
	c.recs[rec.Key] = rec
	return nil
}

// Records returns every cached record in ascending key order.
func (c *Cache) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, len(c.recs))
	for _, rec := range c.recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of cached records.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Quarantined returns how many corrupt lines OpenCache moved to the
// .rej sidecar.
func (c *Cache) Quarantined() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// Close closes the underlying file (a no-op for memory-only caches).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}
