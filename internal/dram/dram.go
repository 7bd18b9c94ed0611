// Package dram models one GDDR memory partition's DRAM channel: a bounded
// request queue, banks with open-row state, FR-FCFS-lite scheduling, and a
// shared data bus whose throughput is the partition's share of the GPU's
// aggregate bandwidth (336 GB/s across 12 partitions in the paper's
// baseline, Table V).
//
// All times are in GPU core cycles (1506 MHz). Bandwidth is modeled with a
// fixed-point bus reservation: each 32 B sector transfer occupies the data
// bus for SectorBytes/BytesPerCycle cycles, so sustained throughput
// converges to the configured bytes-per-cycle figure regardless of request
// mix, while row hits/misses shape latency.
//
// The scheduler is event-driven. Queued requests live in a fixed pool of
// QueueDepth slots, linked per bank in enqueue order and stamped with a
// per-channel sequence number. Enqueue arrival times never decrease along
// the sequence (the MEE enqueues off a monotonic clock; an invariant check
// enforces it), so "oldest, ties broken by queue position" is "lowest
// sequence number", and picking the next request only visits the heads of
// banks that are free instead of every queued request.
//
// Completions are a FIFO in issue order. A request's done cycle is
// ceil(busFreeFP/256) right after its transfer is reserved, and busFreeFP
// never decreases, so done cycles are non-decreasing in issue order and
// the FIFO head is always the earliest completion. Equal-cycle completions
// are returned in issue order. With a bus of at most 32 B/cycle
// (BytesPerCycleFP <= 8192) every transfer occupies at least one whole
// cycle and done cycles strictly increase, so no two completions share a
// cycle at all; every configuration in the repository uses 4759.
//
// Tick keeps a wake cycle — the earliest cycle at which a busy bank with
// queued work frees or the completion head matures — and returns at once
// before it. Enqueue resets it.
package dram

import (
	"fmt"
	"math/bits"

	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// Config describes one DRAM channel (one memory partition).
type Config struct {
	// Banks is the number of DRAM banks in the partition.
	Banks int
	// RowBytes is the open-row (page) size per bank.
	RowBytes int
	// CASCycles is the column access latency for a row hit.
	CASCycles uint64
	// RowCycles is the additional precharge+activate latency on a row miss.
	RowCycles uint64
	// BytesPerCycleFP is the data-bus throughput in bytes per core cycle,
	// in 1/256 fixed point (e.g. 18.59 B/cy ≈ 4759).
	BytesPerCycleFP uint64
	// QueueDepth is the request queue capacity.
	QueueDepth int
}

// DefaultConfig returns the paper's baseline partition channel:
// 336 GB/s / 12 partitions at 1506 MHz core clock = 18.59 B/cycle.
func DefaultConfig() Config {
	return Config{
		Banks:           16,
		RowBytes:        2048,
		CASCycles:       40,
		RowCycles:       80,
		BytesPerCycleFP: 4759, // 18.59 B/cycle * 256
		QueueDepth:      64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: banks %d must be a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes%memdef.PartitionStride != 0 {
		return fmt.Errorf("dram: row bytes %d must be a positive multiple of the partition stride", c.RowBytes)
	}
	if c.BytesPerCycleFP == 0 {
		return fmt.Errorf("dram: bus throughput must be positive")
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("dram: queue depth must be positive")
	}
	return nil
}

// Req is one 32 B sector request to the channel.
type Req struct {
	// Local is the partition-local sector address.
	Local memdef.Addr
	// Kind is Read or Write.
	Kind memdef.AccessKind
	// Class labels the bytes for bandwidth accounting.
	Class stats.TrafficClass
	// Token is an opaque caller identifier returned on completion.
	Token uint64
}

// pendingReq is one slot of the request pool. While queued it is linked
// into its bank's list through next; while free, into the free list.
type pendingReq struct {
	Req
	arrival uint64
	seq     uint64
	row     uint64
	bank    int32
	next    int32 // next slot in the same list, or -1
}

type completion struct {
	req   Req
	cycle uint64
}

type bank struct {
	openRow  uint64
	hasRow   bool
	freeAt   uint64
	rowHits  uint64
	rowMisss uint64
	// head and tail delimit the bank's queued requests in enqueue order
	// (slot indices, -1 when empty).
	head, tail int32
}

// Channel is one memory partition's DRAM channel.
type Channel struct {
	cfg Config
	// slots is the fixed request pool; freeHead chains the unused slots.
	slots    []pendingReq
	freeHead int32
	queued   int
	nextSeq  uint64
	// nonEmpty has bit b set while bank b has queued requests.
	nonEmpty   []uint64
	banks      []bank
	busFreeFP  uint64 // fixed-point cycle (×256) when the data bus frees
	transferFP uint64 // fixed-point bus occupancy of one sector transfer
	completed  ringbuf.Ring[completion]
	// wake is the earliest cycle at which Tick can change state; Tick
	// returns at once before it. 0 forces the next Tick to look.
	wake uint64
	// doneBuf backs the slice returned by Tick; see the validity note there.
	doneBuf []Req

	// Traffic accounts every byte moved, by class and direction.
	Traffic stats.Traffic
	// ReadsServed and WritesServed count completed sector requests.
	ReadsServed, WritesServed uint64
	// BusyCycles approximates cycles in which the bus was transferring.
	busyFP uint64

	// probe, when non-nil, observes enqueues (queue depth) and issues
	// (service latency). part identifies this channel in probe events.
	probe telemetry.Probe
	part  int16

	// enqueued counts accepted requests for the request-conservation
	// invariant; lastTick enforces clock monotonicity and lastArrival
	// arrival monotonicity. All are maintained only while invariant
	// checking is enabled.
	enqueued    uint64
	lastTick    uint64
	lastArrival uint64
}

// SetProbe installs the telemetry probe (nil to disable) and the channel's
// partition id used in emitted events.
func (ch *Channel) SetProbe(p telemetry.Probe, part int) {
	ch.probe = p
	ch.part = int16(part)
}

// NewChannel builds a channel, panicking on invalid configuration.
func NewChannel(cfg Config) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ch := &Channel{
		cfg:        cfg,
		slots:      make([]pendingReq, cfg.QueueDepth),
		nonEmpty:   make([]uint64, (cfg.Banks+63)/64),
		banks:      make([]bank, cfg.Banks),
		transferFP: uint64(memdef.SectorSize) * 256 * 256 / cfg.BytesPerCycleFP,
	}
	ch.resetQueue()
	return ch
}

// resetQueue empties every bank list and chains all slots into the free
// list.
func (ch *Channel) resetQueue() {
	for i := range ch.slots {
		ch.slots[i].next = int32(i + 1)
	}
	ch.slots[len(ch.slots)-1].next = -1
	ch.freeHead = 0
	ch.queued = 0
	for i := range ch.banks {
		ch.banks[i].head, ch.banks[i].tail = -1, -1
	}
	clear(ch.nonEmpty)
	ch.wake = 0
}

// Config returns the channel configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// CanAccept reports whether Enqueue would succeed.
func (ch *Channel) CanAccept() bool { return ch.queued < ch.cfg.QueueDepth }

// QueueLen returns the number of queued (not yet issued) requests.
func (ch *Channel) QueueLen() int { return ch.queued }

// Pending returns queued plus in-flight (issued, not yet completed) requests.
func (ch *Channel) Pending() int { return ch.queued + ch.completed.Len() }

// Enqueue adds a sector request at cycle now. It returns false when the
// queue is full (the caller must retry; this is the back-pressure that
// creates bandwidth contention upstream). now must not decrease from one
// Enqueue to the next.
func (ch *Channel) Enqueue(r Req, now uint64) bool {
	if !ch.CanAccept() {
		return false
	}
	if invariant.Enabled() {
		if now < ch.lastArrival {
			invariant.Failf("arrival-monotonic", fmt.Sprintf("dram[%d]", ch.part), now,
				"Enqueue arrival ran backwards: now=%d < last=%d (local %#x token %d)",
				now, ch.lastArrival, uint64(r.Local), r.Token)
		}
		ch.lastArrival = now
		ch.enqueued++
	}
	slice := uint64(r.Local) / memdef.PartitionStride
	b := int32(slice % uint64(ch.cfg.Banks))
	slicesPerRow := uint64(ch.cfg.RowBytes / memdef.PartitionStride)
	row := (slice / uint64(ch.cfg.Banks)) / slicesPerRow
	ch.push(pendingReq{Req: r, arrival: now, row: row, bank: b})
	ch.wake = 0
	if invariant.Enabled() && ch.queued > ch.cfg.QueueDepth {
		invariant.Failf("queue-occupancy", fmt.Sprintf("dram[%d]", ch.part), now,
			"queue holds %d requests, capacity %d (local %#x token %d)",
			ch.queued, ch.cfg.QueueDepth, uint64(r.Local), r.Token)
	}
	if ch.probe != nil {
		ch.probe.Emit(telemetry.Event{
			Cycle: now, Kind: telemetry.EvDRAMEnqueue, Part: ch.part,
			Class: uint8(r.Class), Value: uint64(ch.queued),
		})
	}
	return true
}

// push takes a free slot for p, stamps it with the next sequence number
// and appends it to its bank's list. The caller has checked CanAccept.
func (ch *Channel) push(p pendingReq) {
	i := ch.freeHead
	ch.freeHead = ch.slots[i].next
	p.seq = ch.nextSeq
	ch.nextSeq++
	p.next = -1
	ch.slots[i] = p
	bk := &ch.banks[p.bank]
	if bk.tail < 0 {
		bk.head = i
		ch.nonEmpty[p.bank>>6] |= 1 << (p.bank & 63)
	} else {
		ch.slots[bk.tail].next = i
	}
	bk.tail = i
	ch.queued++
}

// unlink removes slot i (whose predecessor in its bank list is prev, or -1
// at the head) and returns it to the free list.
func (ch *Channel) unlink(i, prev int32) {
	p := &ch.slots[i]
	bk := &ch.banks[p.bank]
	if prev < 0 {
		bk.head = p.next
	} else {
		ch.slots[prev].next = p.next
	}
	if bk.tail == i {
		bk.tail = prev
	}
	if bk.head < 0 {
		ch.nonEmpty[p.bank>>6] &^= 1 << (p.bank & 63)
	}
	p.next = ch.freeHead
	ch.freeHead = i
	ch.queued--
}

// Tick advances the channel to cycle now: issues eligible requests (FR-FCFS:
// oldest row hit first, else oldest) and returns requests whose data
// transfer completed at or before now. Call with a monotonically
// non-decreasing now. The returned slice aliases a per-channel scratch
// buffer and is valid only until the next Tick (the caller consumes it
// within the same simulated cycle).
func (ch *Channel) Tick(now uint64) []Req {
	if invariant.Enabled() {
		if now < ch.lastTick {
			invariant.Failf("clock-monotonic", fmt.Sprintf("dram[%d]", ch.part), now,
				"Tick clock ran backwards: now=%d < last=%d", now, ch.lastTick)
		}
		ch.lastTick = now
	}
	done := ch.doneBuf[:0]
	if now < ch.wake {
		ch.doneBuf = done
		return done
	}
	// Issue as long as a request can start this cycle. Several issues per
	// cycle are allowed; the bus reservation serializes actual transfers.
	for ch.queued > 0 {
		i, prev := ch.pickNext(now)
		if i < 0 {
			break // every queued request's bank is busy
		}
		p := ch.slots[i]
		ch.unlink(i, prev)
		bk := &ch.banks[p.bank]
		// Column accesses to an open row are pipelined: they add CAS
		// latency but do not occupy the bank. A row miss additionally
		// occupies the bank for the precharge+activate time.
		var rowLat uint64
		if bk.hasRow && bk.openRow == p.row {
			rowLat = ch.cfg.CASCycles
			bk.rowHits++
		} else {
			rowLat = ch.cfg.CASCycles + ch.cfg.RowCycles
			bk.freeAt = now + ch.cfg.RowCycles
			bk.rowMisss++
		}
		bk.openRow = p.row
		bk.hasRow = true

		readyFP := (now + rowLat) * 256
		startFP := readyFP
		if ch.busFreeFP > startFP {
			startFP = ch.busFreeFP
		}
		ch.busFreeFP = startFP + ch.transferFP
		ch.busyFP += ch.transferFP
		doneCycle := (ch.busFreeFP + 255) / 256

		if invariant.Enabled() && ch.completed.Len() > 0 {
			if last := ch.completed.At(ch.completed.Len() - 1).cycle; doneCycle < last {
				invariant.Failf("completion-order", fmt.Sprintf("dram[%d]", ch.part), now,
					"completion at cycle %d queued behind one at %d (token %d)", doneCycle, last, p.Token)
			}
		}
		ch.completed.Push(completion{req: p.Req, cycle: doneCycle})
		if ch.probe != nil {
			ch.probe.Emit(telemetry.Event{
				Cycle: now, Kind: telemetry.EvDRAMService, Part: ch.part,
				Class: uint8(p.Class), Unit: int16(p.bank), Value: doneCycle - p.arrival,
			})
		}

		if p.Kind == memdef.Read {
			ch.Traffic.AddRead(p.Class, memdef.SectorSize)
		} else {
			ch.Traffic.AddWrite(p.Class, memdef.SectorSize)
		}
	}

	for ch.completed.Len() > 0 && ch.completed.Front().cycle <= now {
		c := ch.completed.PopFront()
		if c.req.Kind == memdef.Read {
			ch.ReadsServed++
		} else {
			ch.WritesServed++
		}
		done = append(done, c.req) //shm:alloc-ok fills the reused doneBuf scratch, amortized
	}
	ch.doneBuf = done
	// Every bank with queued work is busy past now (or pickNext would have
	// issued from it) and every matured completion has been returned, so
	// the horizon is strictly after now.
	ch.wake = ch.horizon()
	return done
}

// horizon returns the earliest freeAt over banks with queued requests or
// the completion head's cycle, whichever is earlier; ^uint64(0) when the
// channel is drained.
func (ch *Channel) horizon() uint64 {
	next := ^uint64(0)
	for w, word := range ch.nonEmpty {
		for word != 0 {
			b := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if fa := ch.banks[b].freeAt; fa < next {
				next = fa
			}
		}
	}
	if ch.completed.Len() > 0 {
		if c := ch.completed.Front().cycle; c < next {
			next = c
		}
	}
	return next
}

// NextEvent returns the earliest cycle after now at which the channel can
// make progress on its own — a busy bank freeing (unblocking a queued
// request) or an in-flight transfer completing — or ^uint64(0) when it is
// fully drained. Tick issues every request whose bank is free and pops
// every matured completion, so after a Tick at now both candidate times are
// strictly in the future.
func (ch *Channel) NextEvent(now uint64) uint64 {
	if ch.wake > now {
		return ch.wake // set by a Tick, and nothing was enqueued since
	}
	if next := ch.horizon(); next > now {
		return next
	}
	return now + 1
}

// pickNext implements FR-FCFS-lite over requests whose bank is free at
// cycle now: the oldest row hit wins; otherwise the oldest such request.
// It returns the chosen slot and its predecessor in the bank list (-1 at
// the head), or slot -1 when every queued request targets a busy bank.
// Bank lists are in sequence order, so the oldest request of a bank is its
// head and its oldest row hit is the first hit along the list.
func (ch *Channel) pickNext(now uint64) (slot, prev int32) {
	bestHit, hitPrev, bestAny := int32(-1), int32(-1), int32(-1)
	for w, word := range ch.nonEmpty {
		for word != 0 {
			b := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			bk := &ch.banks[b]
			if bk.freeAt > now {
				continue
			}
			if bestAny < 0 || ch.slots[bk.head].seq < ch.slots[bestAny].seq {
				bestAny = bk.head
			}
			if !bk.hasRow {
				continue
			}
			pr := int32(-1)
			for i := bk.head; i >= 0; pr, i = i, ch.slots[i].next {
				p := &ch.slots[i]
				if bestHit >= 0 && p.seq > ch.slots[bestHit].seq {
					break // no older hit left in this bank
				}
				if p.row == bk.openRow {
					bestHit, hitPrev = i, pr
					break
				}
			}
		}
	}
	if bestHit >= 0 {
		return bestHit, hitPrev
	}
	return bestAny, -1
}

// Drained reports whether no requests are queued or in flight.
func (ch *Channel) Drained() bool { return ch.queued == 0 && ch.completed.Len() == 0 }

// CheckConserved verifies the request-conservation invariant at a drain
// point: every request accepted by Enqueue must have been returned by Tick.
// Callers gate on invariant.Enabled() (the counters only accumulate while
// checking is on, so the check is only coherent when enabled for the whole
// run).
func (ch *Channel) CheckConserved(component string, now uint64) {
	served := ch.ReadsServed + ch.WritesServed
	if ch.enqueued != served || !ch.Drained() {
		invariant.Failf("request-conservation", component, now,
			"%d enqueued, %d served, %d queued, %d in flight",
			ch.enqueued, served, ch.queued, ch.completed.Len())
	}
}

// RowHitRate returns the fraction of issued requests that hit an open row.
func (ch *Channel) RowHitRate() float64 {
	var hits, total uint64
	for i := range ch.banks {
		hits += ch.banks[i].rowHits
		total += ch.banks[i].rowHits + ch.banks[i].rowMisss
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// BusUtilization returns the fraction of cycles [0,now] the data bus was
// transferring.
func (ch *Channel) BusUtilization(now uint64) float64 {
	if now == 0 {
		return 0
	}
	return float64(ch.busyFP) / float64(now*256)
}
