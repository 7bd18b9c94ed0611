package dram

import (
	"sort"

	"shmgpu/internal/snapshot"
)

// Checkpoint/restore. The restore target must be a channel built by
// NewChannel with the identical configuration. Queued requests are written
// in enqueue (sequence) order and completions in completion order, which
// is the FIFO's order; that is everything the scheduler's decisions depend
// on, so the pool's slot layout and the sequence numbers themselves are
// rebuilt on load rather than serialized. Snapshots written while
// completions were a binary heap stored the heap's backing array, which is
// not sorted; a restore stable-sorts completions by cycle, which restores
// their pop order exactly because no two of them shared a cycle (see the
// package comment). doneBuf is scratch — only valid between Tick and the
// caller consuming the returned slice — and is never live at a cycle
// boundary, so it is not serialized. Cold path only.

// WalkState saves or restores one request (shared with the secmem
// serializer).
func (r *Req) WalkState(s *snapshot.State) {
	s.U64((*uint64)(&r.Local))
	s.U8((*uint8)(&r.Kind))
	s.U8((*uint8)(&r.Class))
	s.U64(&r.Token)
}

// WalkState saves or restores the channel's mutable state. Loading
// re-pushes the queued requests in order and stable-sorts the
// completions by cycle.
func (ch *Channel) WalkState(s *snapshot.State) {
	s.Match("dram queue depth", ch.cfg.QueueDepth)
	s.Match("dram banks", len(ch.banks))
	var queued []int32
	if !s.Loading() {
		queued = ch.queuedInOrder()
	}
	n := s.Len(len(queued))
	if s.Loading() {
		if n > ch.cfg.QueueDepth {
			s.Failf("dram: snapshot queue length %d exceeds depth %d", n, ch.cfg.QueueDepth)
			return
		}
		ch.resetQueue()
		ch.nextSeq = 0
		ch.lastArrival = 0
	}
	for i := 0; i < n; i++ {
		var p pendingReq
		if !s.Loading() {
			p = ch.slots[queued[i]]
		}
		p.Req.WalkState(s)
		s.U64(&p.arrival)
		b := int(p.bank)
		s.Int(&b)
		s.U64(&p.row)
		if s.Loading() {
			if b < 0 || b >= len(ch.banks) {
				s.Failf("dram: queued request targets bank %d of %d", b, len(ch.banks))
				return
			}
			p.bank = int32(b)
			ch.push(p)
			// Arrivals never decrease along the queue, so the last one is
			// the latest the arrival-monotonic check has to respect.
			ch.lastArrival = p.arrival
		}
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		s.U64(&b.openRow)
		s.Bool(&b.hasRow)
		s.U64(&b.freeAt)
		s.U64(&b.rowHits)
		s.U64(&b.rowMisss)
	}
	s.U64(&ch.busFreeFP)
	done := make([]completion, ch.completed.Len())
	for i := range done {
		done[i] = *ch.completed.At(i)
	}
	snapshot.Slice(s, &done, func(s *snapshot.State, c *completion) {
		c.req.WalkState(s)
		s.U64(&c.cycle)
	})
	if s.Loading() {
		sort.SliceStable(done, func(a, b int) bool { return done[a].cycle < done[b].cycle })
		ch.completed.Clear()
		for _, c := range done {
			ch.completed.Push(c)
		}
	}
	ch.Traffic.WalkState(s)
	s.U64(&ch.ReadsServed)
	s.U64(&ch.WritesServed)
	s.U64(&ch.busyFP)
	s.U64(&ch.enqueued)
	s.U64(&ch.lastTick)
}

// queuedInOrder returns the slots of every queued request in enqueue
// order.
func (ch *Channel) queuedInOrder() []int32 {
	queued := make([]int32, 0, ch.queued)
	for i := range ch.banks {
		for j := ch.banks[i].head; j >= 0; j = ch.slots[j].next {
			queued = append(queued, j)
		}
	}
	sort.Slice(queued, func(a, b int) bool {
		return ch.slots[queued[a]].seq < ch.slots[queued[b]].seq
	})
	return queued
}
