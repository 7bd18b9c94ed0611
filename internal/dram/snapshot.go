package dram

import (
	"fmt"
	"sort"

	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
)

// Checkpoint/restore. The restore target must be a channel built by
// NewChannel with the identical configuration. Queued requests are written
// in enqueue (sequence) order and completions in completion order, which
// is the FIFO's order; that is everything the scheduler's decisions depend
// on, so the pool's slot layout and the sequence numbers themselves are
// rebuilt on load rather than serialized. Snapshots written while
// completions were a binary heap stored the heap's backing array, which is
// not sorted; LoadState stable-sorts completions by cycle, which restores
// their pop order exactly because no two of them shared a cycle (see the
// package comment). doneBuf is scratch — only valid between Tick and the
// caller consuming the returned slice — and is never live at a cycle
// boundary, so it is not serialized. Cold path only.

// SaveReq writes one request (shared with the secmem serializer).
func SaveReq(e *snapshot.Encoder, r *Req) {
	e.U64(uint64(r.Local))
	e.U8(uint8(r.Kind))
	e.U8(uint8(r.Class))
	e.U64(r.Token)
}

// LoadReq restores a request written by SaveReq.
func LoadReq(d *snapshot.Decoder, r *Req) {
	r.Local = memdef.Addr(d.U64())
	r.Kind = memdef.AccessKind(d.U8())
	r.Class = stats.TrafficClass(d.U8())
	r.Token = d.U64()
}

// SaveState writes the channel's mutable state.
func (ch *Channel) SaveState(e *snapshot.Encoder) {
	e.Int(ch.cfg.QueueDepth)
	e.Int(len(ch.banks))
	queued := ch.queuedInOrder()
	e.Int(len(queued))
	for _, i := range queued {
		p := &ch.slots[i]
		SaveReq(e, &p.Req)
		e.U64(p.arrival)
		e.Int(int(p.bank))
		e.U64(p.row)
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		e.U64(b.openRow)
		e.Bool(b.hasRow)
		e.U64(b.freeAt)
		e.U64(b.rowHits)
		e.U64(b.rowMisss)
	}
	e.U64(ch.busFreeFP)
	e.Int(ch.completed.Len())
	for i := 0; i < ch.completed.Len(); i++ {
		c := ch.completed.At(i)
		SaveReq(e, &c.req)
		e.U64(c.cycle)
	}
	ch.Traffic.SaveState(e)
	e.U64(ch.ReadsServed)
	e.U64(ch.WritesServed)
	e.U64(ch.busyFP)
	e.U64(ch.enqueued)
	e.U64(ch.lastTick)
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

// LoadState restores state saved by SaveState into a same-configured
// channel.
func (ch *Channel) LoadState(d *snapshot.Decoder) error {
	depth := d.Int()
	nBanks := d.Int()
	nQueue := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if depth != ch.cfg.QueueDepth || nBanks != len(ch.banks) {
		return fmt.Errorf("dram: snapshot has depth %d / %d banks, this channel has %d / %d",
			depth, nBanks, ch.cfg.QueueDepth, len(ch.banks))
	}
	if nQueue < 0 || nQueue > depth {
		return fmt.Errorf("dram: snapshot queue length %d exceeds depth %d", nQueue, depth)
	}
	ch.resetQueue()
	ch.nextSeq = 0
	ch.lastArrival = 0
	for i := 0; i < nQueue; i++ {
		var p pendingReq
		LoadReq(d, &p.Req)
		p.arrival = d.U64()
		b := d.Int()
		p.row = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if b < 0 || b >= nBanks {
			return fmt.Errorf("dram: queued request targets bank %d of %d", b, nBanks)
		}
		p.bank = int32(b)
		ch.push(p)
		// Arrivals never decrease along the queue, so the last one is the
		// latest the arrival-monotonic check has to respect.
		ch.lastArrival = p.arrival
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		b.openRow = d.U64()
		b.hasRow = d.Bool()
		b.freeAt = d.U64()
		b.rowHits = d.U64()
		b.rowMisss = d.U64()
	}
	ch.busFreeFP = d.U64()
	nDone := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	done := make([]completion, nDone)
	for i := range done {
		LoadReq(d, &done[i].req)
		done[i].cycle = d.U64()
	}
	sort.SliceStable(done, func(a, b int) bool { return done[a].cycle < done[b].cycle })
	ch.completed.Clear()
	for _, c := range done {
		ch.completed.Push(c)
	}
	ch.Traffic.LoadState(d)
	ch.ReadsServed = d.U64()
	ch.WritesServed = d.U64()
	ch.busyFP = d.U64()
	ch.enqueued = d.U64()
	ch.lastTick = d.U64()
	return d.Err()
}
