// Package router implements the cycle-accurate interconnect model: an
// input-queued virtual-channel router microarchitecture (4-stage
// pipeline: routing computation, VC allocation, switch allocation,
// transmission), virtual cut-through switching, credit-based flow
// control with the safe/unsafe policy of the paper's Algorithm 5, links
// with bandwidth/latency and an optional go-back-N reliability
// protocol, and the Fabric cycle engine that advances everything in
// lockstep.
//
// # Cycle engines and the equivalence contract
//
// Fabric.Step has three implementations:
//
//   - stepReference: the naive engine. Every cycle it calls deliver on
//     every link, then vcAllocate on every router, then switchAllocate
//     on every router. It is deliberately simple and is retained,
//     unoptimised, as the oracle.
//   - stepActive: the active-set engine. It visits only links and
//     routers whose bit is set in the fabric's active-set bitmaps, in
//     ascending index order.
//   - stepIslands (EnableIslands): the parallel-islands engine. The
//     fabric is partitioned into contiguous-chiplet islands, each
//     stepping its own active sets on a persistent worker goroutine;
//     boundary flits/credits, ejections, and fault-log appends are
//     exchanged through deterministic per-edge mailboxes and ordered
//     drains at per-cycle barriers (see islands.go for the full
//     argument). A cycle with fewer than IslandGrain active routers,
//     single-island partitions and traced runs are plain stepActive
//     cycles on the fabric's own bitmaps instead, so one run may mix
//     serial and parallel cycles. The module root's default engine is
//     this one on fabrics of at least its grain in routers, with one
//     island per CPU and parallel cycles only while its run is the only
//     one stepping in the process; smaller fabrics, one-island
//     partitions (GOMAXPROCS 1 or one chiplet) and hand-stepped fabrics
//     use stepActive alone.
//
// stepActive and stepIslands share one implementation of each phase
// over a bitmap — deliverLinks, allocate and transmit (engine.go) — and
// differ only in which bitmaps they pass. stepReference shares nothing:
// an oracle that ran the same walk could not catch a bug in it.
//
// The contract is that the engines are OBSERVATIONALLY IDENTICAL:
// started from the same state and fed the same injections, they produce
// bit-identical fabric state, delivery sequences (order included —
// the statistics collector accumulates floating-point sums, so delivery
// order is observable), fault logs, and checkpoint snapshots. The
// differential-equivalence suite (engine_equiv_test.go and
// FuzzEngineEquivalence at the module root) enforces the contract
// three-ways across topology kinds, routing modes, interleavings, and
// fault schedules; Fabric.UseReference selects the reference engine and
// Fabric.EnableIslands the islands engine.
//
// The equivalence rests on two facts, which any future change to the
// pipeline must preserve:
//
//  1. Skipping an idle component is a no-op in the reference engine
//     too. A router leaves the active set only when waiting == 0 and
//     grants == 0, which means every VC is vcIdle with an empty queue;
//     vcAllocate early-returns without touching vaOffset (the fairness
//     rotation must NOT advance for skipped routers) and
//     switchAllocate finds no output with a grant. A link
//     leaves the active set only when pendingWork() is false (no
//     flits, credits, acks, or replay entries), making deliver a
//     guaranteed no-op.
//  2. Every transition that creates work wakes the component before
//     the work can be observed, and phases only wake components in
//     ways the iteration tolerates: flit arrival wakes the receiving
//     router via VC.startHead (a freshly started head is not eligible
//     for VA until now+2, so waking it this cycle or next is
//     equivalent); push/returnCredit wake the link (its cargo is due
//     no earlier than now+1); phase 1 never wakes links, phase 2 never
//     wakes routers, and phase 3 wakes only the processed router
//     itself — so each phase iterates a stable set.
//
// The islands engine inherits both facts and adds a third: within each
// phase, work on distinct components is order-independent except for
// three effects — ejection order into the Sink, fault-log append order,
// and active-set wakes. stepIslands re-serializes the first two
// (deferred-ejection drains in ascending router order; Rel-protected
// links and their routers processed on the coordinator in ascending
// index order) and makes the third commutative (wakes are idempotent
// bit-sets in bitmaps each written by one island only), so the parallel
// schedule is unobservable.
//
// Inside a router the same idea applies one level down, shared by all
// three engines: each input port's wait-set has one bit per VC in route
// computation/VA, and vcAllocate visits, in the rotated port order, only
// those VCs, ascending — exactly what a full scan of the VCs would try —
// and stops after the last waiting VC (the router's waiting count).
// switchAllocate likewise skips outputs with empty grant lists and stops
// after the last output holding a grant (the grants count). Because the
// reference engine runs the same router walks, it cannot catch a
// wait-set bug; TestActiveSetMasksMatchState (the wait-sets equal the VC
// states after every cycle and after Restore) and TestVCAllocateScanOrder
// (walk order) do.
//
// The active sets and wait-sets are derived state: Snapshot does not
// record them and Restore rebuilds them (rebuildActive), so checkpoint
// files are byte-identical regardless of the engine that produced or
// consumes them. The island partition, classification, mailboxes and
// workers are derived the same way — a checkpoint taken under one
// engine resumes under any other, at any grain.
//
// # Queue footprint
//
// Every queue (VC buffers, link flit/credit/ack pipelines, replay
// windows) is a power-of-two ring fifo that grows only when full, so its
// storage is bounded by its peak occupancy: a link's flit ring never
// exceeds nextPow2(max(4, Latency)) slots (TestLinkFlitRingFootprint).
// The cycle loop is bound by memory access, so this density is most of
// its speed.
//
// # Zero-alloc policy
//
// The steady-state cycle loop (Step on a warmed-up fabric, audits
// included) must not allocate: per-cycle scratch lives on the Fabric
// (AuditCredits buffers) or the VC (routing-candidate buffers), queues
// are ring fifos that reach a stable capacity, and sorting inside
// routing algorithms must use in-place insertion sorts (sort.Slice
// allocates). The islands engine's workers are started once per fabric
// and each phase is handed to them through atomics and buffered
// channels, so a parallel cycle allocates nothing either.
// TestStepSteadyStateZeroAlloc in this package enforces the policy with
// testing.AllocsPerRun, for the active engine and the islands engine at
// K = 1 and at K = 2 with every cycle parallel.
package router
