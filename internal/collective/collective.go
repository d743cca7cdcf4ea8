// Package collective runs collective-communication operations on a built
// multi-chiplet system and measures their completion time. The paper's
// background (§II-B) motivates interconnect design by collective traffic
// ("all collective communication operations are also completed via the
// network"); this package makes that workload concrete: all-reduce (ring
// and recursive-doubling), all-gather and all-to-all, expressed as
// dependency graphs of messages and driven by the cycle engine.
package collective

import (
	"fmt"

	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/topology"
)

// Send is one message of a collective schedule: Src and Dst are
// participant indices; the send may start only after every send listed in
// Deps has been fully delivered (and all Deps must target Src).
type Send struct {
	ID       int
	Src, Dst int
	Flits    int
	Deps     []int
}

// Algorithm produces the message schedule of a collective over n
// participants.
type Algorithm interface {
	Name() string
	// Schedule returns the sends; IDs must be dense [0, len).
	Schedule(n int) ([]Send, error)
}

// Result summarizes one collective execution.
type Result struct {
	Algorithm string
	// CompletionCycles is the cycle at which the last message was
	// delivered, counted from the start of the operation.
	CompletionCycles int64
	// Messages and TotalFlits describe the schedule volume.
	Messages   int
	TotalFlits int64
	// BusBandwidth is the classic collective figure of merit:
	// total flits moved / completion time / participants.
	BusBandwidth float64
}

// maxIdleCycles bounds how long the driver waits without any delivery
// before declaring the schedule stuck.
const maxIdleCycles = 200000

// Run executes the collective on the system and returns its timing. The
// system must be freshly built (no prior simulation). Participants are the
// system's core nodes. Each message is segmented into packets of pktFlits
// with interleave tags from pol.
func Run(sys *topology.System, alg Algorithm, pktFlits int, pol interleave.Policy) (Result, error) {
	parts := sys.Cores
	n := len(parts)
	if n < 2 {
		return Result{}, fmt.Errorf("collective: need at least 2 participants")
	}
	sends, err := alg.Schedule(n)
	if err != nil {
		return Result{}, err
	}
	if err := Validate(sends, n); err != nil {
		return Result{}, fmt.Errorf("collective: %s: %w", alg.Name(), err)
	}

	// Dependency bookkeeping.
	pending := make([]int, len(sends)) // unmet dep count
	waiters := make([][]int, len(sends))
	var total int64
	for i, s := range sends {
		pending[i] = len(s.Deps)
		for _, d := range s.Deps {
			waiters[d] = append(waiters[d], s.ID)
		}
		total += int64(s.Flits)
	}

	f := sys.Fabric
	// packet id -> send, plus remaining packet count per send.
	pktSend := map[uint64]int{}
	remaining := make([]int, len(sends))
	delivered := 0
	var lastDelivery int64
	var ready []int

	var nextPktID uint64
	launch := func(sendID int, now int64) {
		s := &sends[sendID]
		packets := (s.Flits + pktFlits - 1) / pktFlits
		remaining[sendID] = packets
		left := s.Flits
		for seq := 0; seq < packets; seq++ {
			l := pktFlits
			if l > left {
				l = left
			}
			left -= l
			p := &packet.Packet{
				ID:        nextPktID,
				MsgID:     uint64(sendID),
				SeqInMsg:  seq,
				Src:       parts[s.Src],
				Dst:       parts[s.Dst],
				Tag:       pol.Tag(uint64(sendID), seq),
				Len:       l,
				CreatedAt: now,
			}
			pktSend[nextPktID] = sendID
			nextPktID++
			f.Routers[parts[s.Src]].Inject(p, now)
		}
	}

	f.Sink = func(p *packet.Packet, now int64) {
		sendID, ok := pktSend[p.ID]
		if !ok {
			return
		}
		delete(pktSend, p.ID)
		remaining[sendID]--
		if remaining[sendID] > 0 {
			return
		}
		// Send fully delivered: release its waiters.
		delivered++
		lastDelivery = now
		for _, w := range waiters[sendID] {
			pending[w]--
			if pending[w] == 0 {
				ready = append(ready, w)
			}
		}
	}

	// Initial wave.
	for i := range sends {
		if pending[i] == 0 {
			ready = append(ready, i)
		}
	}

	idleSince := int64(0)
	for delivered < len(sends) {
		now := f.Now + 1
		batch := ready
		ready = nil
		for _, id := range batch {
			launch(id, now)
		}
		f.Step()
		if f.Deadlocked {
			return Result{}, fmt.Errorf("collective: %s: network deadlock", alg.Name())
		}
		if lastDelivery > idleSince {
			idleSince = lastDelivery
		}
		if f.Now-idleSince > maxIdleCycles {
			return Result{}, fmt.Errorf("collective: %s: stalled (%d of %d messages delivered)", alg.Name(), delivered, len(sends))
		}
	}

	res := Result{
		Algorithm:        alg.Name(),
		CompletionCycles: lastDelivery,
		Messages:         len(sends),
		TotalFlits:       total,
	}
	if lastDelivery > 0 {
		res.BusBandwidth = float64(total) / float64(lastDelivery) / float64(n)
	}
	return res, nil
}

// Validate checks a schedule over n participants: IDs are dense, every
// send has distinct in-range endpoints and a payload, every dependency
// names a send delivered to the sending node, and at least one send has
// no dependencies, so the schedule can start.
func Validate(sends []Send, n int) error {
	startable := false
	for i, s := range sends {
		if s.ID != i {
			return fmt.Errorf("send %d has id %d (must be dense)", i, s.ID)
		}
		if s.Src < 0 || s.Src >= n || s.Dst < 0 || s.Dst >= n || s.Src == s.Dst {
			return fmt.Errorf("send %d has bad endpoints %d->%d", i, s.Src, s.Dst)
		}
		if s.Flits < 1 {
			return fmt.Errorf("send %d has no payload", i)
		}
		for _, d := range s.Deps {
			if d < 0 || d >= len(sends) {
				return fmt.Errorf("send %d depends on unknown send %d", i, d)
			}
			if sends[d].Dst != s.Src {
				return fmt.Errorf("send %d depends on send %d which is not delivered to node %d", i, d, s.Src)
			}
		}
		startable = startable || len(s.Deps) == 0
	}
	if !startable {
		return fmt.Errorf("schedule has no startable sends")
	}
	return nil
}
