// Package backoff is the repository's shared retry-pacing policy:
// capped exponential delays between attempts. Its callers are the fleet
// coordinator's lease reassignment, the fleet worker's request retries
// and the benchmark's status polling; the chipletlint retrysleep
// analyzer flags bare time.Sleep calls inside loops anywhere else, so
// retry discipline cannot silently regress to busy hammering.
//
// Delay is deliberately jitter-free: delays are a pure function of the
// attempt number, so pacing is reproducible in tests. When
// many independent clients retry against one server — the coordinator's
// worker fleet — identical delays synchronize into a thundering herd, so
// DelayFor adds per-key jitter that is still deterministic: the jitter
// factor is hash-seeded from a caller-supplied key (a worker ID, a shard
// name), making every client's schedule distinct yet exactly
// reproducible in tests.
package backoff

import (
	"context"
	"hash/fnv"
	"math"
	"strconv"
	"time"
)

// Policy is a capped exponential backoff: the pause before retry k
// (1-based) is Base << (k-1), clamped to Cap.
type Policy struct {
	// Base is the delay before the first retry. A zero or negative Base
	// disables pausing entirely (Delay returns 0 for every attempt).
	Base time.Duration
	// Cap bounds the delay; <= 0 means uncapped.
	Cap time.Duration
	// Jitter, in (0, 1], spreads DelayFor's delays over
	// [(1-Jitter)·Delay, Delay] using a factor hashed from the caller's
	// key, so clients with distinct keys desynchronize. 0 disables
	// jitter; Delay and Wait never apply it.
	Jitter float64
}

// Delay returns the pause before retry attempt (1-based). Attempts
// before the first retry, or a disabled policy, yield zero.
func (p Policy) Delay(attempt int) time.Duration {
	if attempt < 1 || p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if p.Cap > 0 && d >= p.Cap {
			return p.Cap
		}
		if d <= 0 { // doubling overflowed
			if p.Cap > 0 {
				return p.Cap
			}
			return time.Duration(math.MaxInt64)
		}
	}
	if p.Cap > 0 && d > p.Cap {
		return p.Cap
	}
	return d
}

// DelayFor returns the pause before retry attempt (1-based) for the
// client identified by key: Delay(attempt) scaled by a deterministic
// per-(key, attempt) factor in [1-Jitter, 1]. With Jitter 0 (or an
// empty delay) it is exactly Delay. The factor comes from an FNV-1a
// hash, so the full retry schedule of any key is reproducible while
// distinct keys spread apart instead of hammering in lockstep.
func (p Policy) DelayFor(key string, attempt int) time.Duration {
	d := p.Delay(attempt)
	if d <= 0 || p.Jitter <= 0 {
		return d
	}
	j := p.Jitter
	if j > 1 {
		j = 1
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{'|'})
	h.Write([]byte(strconv.Itoa(attempt)))
	// Top 53 bits → an exact float64 fraction in [0, 1).
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	scaled := time.Duration(float64(d) * (1 - j*frac))
	if scaled < 1 {
		scaled = 1 // a jittered retry still pauses
	}
	return scaled
}

// Wait blocks for Delay(attempt) or until ctx is done, whichever comes
// first, returning ctx's error in the latter case — the pacing primitive
// for retry loops that must abort promptly on cancellation.
func (p Policy) Wait(ctx context.Context, attempt int) error {
	return waitFor(ctx, p.Delay(attempt))
}

// WaitFor is Wait with DelayFor's per-key jitter: the pacing primitive
// for fleets of clients retrying against one server.
func (p Policy) WaitFor(ctx context.Context, key string, attempt int) error {
	return waitFor(ctx, p.DelayFor(key, attempt))
}

func waitFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
