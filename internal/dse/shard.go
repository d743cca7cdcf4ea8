package dse

import (
	"errors"
	"fmt"
	"reflect"
)

// ShardN is the store's fan-out: one JSONL shard per first hex nibble
// of the SHA-256 content key. Sixteen shards keep any single append-only
// file small while the nibble → file mapping stays trivially stable (the
// key alphabet is lowercase hex, so ascending shard order is ascending
// key order).
const ShardN = 16

// shardFile names shard i inside a store directory.
func shardFile(i int) string { return fmt.Sprintf("shard-%x.jsonl", i) }

// ShardIndex maps a content key to its shard: the value of the key's
// first hex digit. Keys are hex SHA-256 (see Key); anything else is
// rejected rather than silently misfiled. The mapping is the unit of
// work distribution: the coordinator partitions a campaign by shard, so
// every evaluation a worker produces lands in exactly one shard file and
// cross-machine merges never contend on a key range.
func ShardIndex(key string) (int, error) {
	if key == "" {
		return 0, fmt.Errorf("dse: empty cache key")
	}
	c := key[0]
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), nil
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, nil
	}
	return 0, fmt.Errorf("dse: cache key %.12s is not hex", key)
}

// ErrConflict reports that a merge found two content-distinct records at
// the same content address — a violation of the determinism contract
// that callers must treat as data corruption, not as a retryable fault.
// Returned wrapped; test with errors.Is.
var ErrConflict = errors.New("dse: merge conflict")

// Merge unions the records of srcs into dst, deterministically: sources
// in argument order, each source's records in ascending key order. A key
// already present in dst must carry a content-identical record — two
// machines evaluating the same candidate produce bit-identical Records
// (the determinism contract), so duplicate keys dedupe silently; a
// content conflict means one side is lying and aborts the merge with an
// error naming the key. Returns the number of records newly added.
//
// Merging two independently populated stores and re-running the
// exploration against the union yields reports byte-identical to a
// single-machine run — the property the daemon's distributed campaigns
// rest on.
//
// Merge copies records only, not pre-flight verdicts: a verdict is cheap
// to retake, and the first plan against dst certifies whatever
// structures it has not seen and stores their verdicts then.
func Merge(dst *Store, srcs ...*Store) (added int, err error) {
	for si, src := range srcs {
		for _, rec := range src.Records() {
			prev, ok := dst.Lookup(rec.Key)
			if ok {
				if !reflect.DeepEqual(prev, rec) {
					return added, fmt.Errorf("%w on key %.12s (source %d, candidate %s): records differ for the same content address", ErrConflict, rec.Key, si, rec.Name)
				}
				continue
			}
			if err := dst.Put(rec); err != nil {
				return added, err
			}
			added++
		}
	}
	return added, nil
}
