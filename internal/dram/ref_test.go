package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// refChannel is the scan-based scheduler the event-driven Channel
// replaced, kept as a test-only reference model: a slice queue rescanned
// in full on every pick, and a binary min-heap of completions whose sift
// routines mirror container/heap's. It also writes snapshots in the heap's
// backing-array order, the layout older snapshot files carry.
type refChannel struct {
	cfg       Config
	queue     []refPending
	banks     []refBank
	busFreeFP uint64
	completed refHeap
	traffic   stats.Traffic
	reads     uint64
	writes    uint64
	busyFP    uint64
	lastTick  uint64
	// issued logs tokens in issue order; log records the probe events the
	// Channel emits.
	issued []uint64
	log    eventLog
}

type refPending struct {
	Req
	arrival uint64
	bank    int
	row     uint64
}

type refBank struct {
	openRow          uint64
	hasRow           bool
	freeAt           uint64
	rowHits, rowMiss uint64
}

func newRefChannel(cfg Config) *refChannel {
	return &refChannel{cfg: cfg, banks: make([]refBank, cfg.Banks)}
}

func (ch *refChannel) Enqueue(r Req, now uint64) bool {
	if len(ch.queue) >= ch.cfg.QueueDepth {
		return false
	}
	slice := uint64(r.Local) / memdef.PartitionStride
	b := int(slice % uint64(ch.cfg.Banks))
	slicesPerRow := uint64(ch.cfg.RowBytes / memdef.PartitionStride)
	row := (slice / uint64(ch.cfg.Banks)) / slicesPerRow
	ch.queue = append(ch.queue, refPending{Req: r, arrival: now, bank: b, row: row})
	ch.log.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvDRAMEnqueue, Class: uint8(r.Class), Value: uint64(len(ch.queue))})
	return true
}

func (ch *refChannel) Tick(now uint64) []Req {
	ch.lastTick = now
	for len(ch.queue) > 0 {
		idx := ch.pickNext(now)
		if idx < 0 {
			break
		}
		p := ch.queue[idx]
		bk := &ch.banks[p.bank]
		var rowLat uint64
		if bk.hasRow && bk.openRow == p.row {
			rowLat = ch.cfg.CASCycles
			bk.rowHits++
		} else {
			rowLat = ch.cfg.CASCycles + ch.cfg.RowCycles
			bk.freeAt = now + ch.cfg.RowCycles
			bk.rowMiss++
		}
		bk.openRow = p.row
		bk.hasRow = true
		transferFP := uint64(memdef.SectorSize) * 256 * 256 / ch.cfg.BytesPerCycleFP
		startFP := (now + rowLat) * 256
		if ch.busFreeFP > startFP {
			startFP = ch.busFreeFP
		}
		ch.busFreeFP = startFP + transferFP
		ch.busyFP += transferFP
		doneCycle := (startFP + transferFP + 255) / 256
		ch.completed.push(completion{req: p.Req, cycle: doneCycle})
		ch.queue = append(ch.queue[:idx], ch.queue[idx+1:]...)
		ch.issued = append(ch.issued, p.Token)
		ch.log.Emit(telemetry.Event{
			Cycle: now, Kind: telemetry.EvDRAMService,
			Class: uint8(p.Class), Unit: int16(p.bank), Value: doneCycle - p.arrival,
		})
		if p.Kind == memdef.Read {
			ch.traffic.AddRead(p.Class, memdef.SectorSize)
		} else {
			ch.traffic.AddWrite(p.Class, memdef.SectorSize)
		}
	}
	var done []Req
	for len(ch.completed) > 0 && ch.completed[0].cycle <= now {
		c := ch.completed.pop()
		if c.req.Kind == memdef.Read {
			ch.reads++
		} else {
			ch.writes++
		}
		done = append(done, c.req)
	}
	return done
}

func (ch *refChannel) pickNext(now uint64) int {
	bestHit, bestAny := -1, -1
	for i := range ch.queue {
		p := &ch.queue[i]
		bk := &ch.banks[p.bank]
		if bk.freeAt > now {
			continue
		}
		if bk.hasRow && bk.openRow == p.row {
			if bestHit < 0 || p.arrival < ch.queue[bestHit].arrival {
				bestHit = i
			}
		}
		if bestAny < 0 || p.arrival < ch.queue[bestAny].arrival {
			bestAny = i
		}
	}
	if bestHit >= 0 {
		return bestHit
	}
	return bestAny
}

func (ch *refChannel) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	for i := range ch.queue {
		if fa := ch.banks[ch.queue[i].bank].freeAt; fa < next {
			next = fa
		}
	}
	if len(ch.completed) > 0 && ch.completed[0].cycle < next {
		next = ch.completed[0].cycle
	}
	if next <= now {
		return now + 1
	}
	return next
}

// SaveState writes the snapshot layout with the completion heap's backing
// array verbatim (enqueued is written as 0: the reference does not run
// the invariant counters).
func (ch *refChannel) SaveState(e *snapshot.Encoder) {
	st := snapshot.Saving(e)
	e.Int(ch.cfg.QueueDepth)
	e.Int(len(ch.banks))
	e.Int(len(ch.queue))
	for i := range ch.queue {
		p := &ch.queue[i]
		p.Req.WalkState(st)
		e.U64(p.arrival)
		e.Int(p.bank)
		e.U64(p.row)
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		e.U64(b.openRow)
		e.Bool(b.hasRow)
		e.U64(b.freeAt)
		e.U64(b.rowHits)
		e.U64(b.rowMiss)
	}
	e.U64(ch.busFreeFP)
	e.Int(len(ch.completed))
	for i := range ch.completed {
		ch.completed[i].req.WalkState(st)
		e.U64(ch.completed[i].cycle)
	}
	ch.traffic.WalkState(st)
	e.U64(ch.reads)
	e.U64(ch.writes)
	e.U64(ch.busyFP)
	e.U64(0)
	e.U64(ch.lastTick)
}

type refHeap []completion

func (h refHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || h[j].cycle >= h[i].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h refHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].cycle < h[j1].cycle {
			j = j2
		}
		if h[j].cycle >= h[i].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *refHeap) push(c completion) {
	*h = append(*h, c)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() completion {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	c := old[n]
	*h = old[:n]
	return c
}

// eventLog records probe events.
type eventLog struct{ events []telemetry.Event }

func (l *eventLog) Emit(e telemetry.Event) { l.events = append(l.events, e) }

// streamGen draws a randomized request stream over a few rows per bank,
// so row hits, row misses and bank conflicts all occur, with bursts of
// same-cycle enqueues that overrun shallow queues.
type streamGen struct {
	rng   *rand.Rand
	cfg   Config
	token uint64
}

func (g *streamGen) req() Req {
	slicesPerRow := g.cfg.RowBytes / memdef.PartitionStride
	b := g.rng.Intn(g.cfg.Banks)
	row := g.rng.Intn(3)
	col := g.rng.Intn(slicesPerRow)
	slice := (row*slicesPerRow+col)*g.cfg.Banks + b
	sector := g.rng.Intn(memdef.PartitionStride / memdef.SectorSize)
	g.token++
	kind := memdef.Read
	if g.rng.Intn(4) == 0 {
		kind = memdef.Write
	}
	return Req{
		Local: memdef.Addr(slice*memdef.PartitionStride + sector*memdef.SectorSize),
		Kind:  kind, Class: stats.TrafficClass(g.rng.Intn(stats.NumTrafficClasses)), Token: g.token,
	}
}

func tokens(rs []Req) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Token
	}
	return out
}

// sameMultiset reports whether a and b hold the same tokens in any order.
func sameMultiset(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[uint64]int, len(a))
	for _, t := range a {
		seen[t]++
	}
	for _, t := range b {
		seen[t]--
		if seen[t] < 0 {
			return false
		}
	}
	return true
}

// differential drives a Channel and the reference model with the same
// randomized stream and clock and compares every observable. exactTies
// requires identical per-Tick output order; otherwise (buses faster than
// 32 B/cycle, where the heap's equal-cycle pop order is its layout's)
// per-Tick outputs need only match as sets. Either way the Channel must
// return completions in the reference's issue order.
func differential(t *testing.T, cfg Config, seed int64, cycles uint64, exactTies bool) {
	t.Helper()
	ch := NewChannel(cfg)
	var log eventLog
	ch.SetProbe(&log, 0)
	ref := newRefChannel(cfg)
	gen := &streamGen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	var returned []uint64
	full := 0
	for now := uint64(0); now < cycles || !ch.Drained(); {
		if now < cycles && gen.rng.Intn(3) > 0 {
			for k := gen.rng.Intn(6); k > 0; k-- {
				r := gen.req()
				got, want := ch.Enqueue(r, now), ref.Enqueue(r, now)
				if got != want {
					t.Fatalf("cycle %d: Enqueue(token %d) = %v, reference %v", now, r.Token, got, want)
				}
				if !got {
					full++
				}
			}
		}
		// The horizon must also be right before this cycle's Tick, with
		// the channel's wake cycle possibly already reached.
		if ne, refNE := ch.NextEvent(now), ref.NextEvent(now); ne != refNE {
			t.Fatalf("cycle %d, before Tick: NextEvent %d, reference %d", now, ne, refNE)
		}
		refDone := tokens(ref.Tick(now))
		got := tokens(ch.Tick(now))
		if exactTies && !reflect.DeepEqual(got, refDone) {
			t.Fatalf("cycle %d: Tick returned %v, reference %v", now, got, refDone)
		}
		if !exactTies && !sameMultiset(got, refDone) {
			t.Fatalf("cycle %d: Tick returned %v, reference %v (as sets)", now, got, refDone)
		}
		returned = append(returned, got...)
		if ch.QueueLen() != len(ref.queue) || ch.Pending() != len(ref.queue)+len(ref.completed) {
			t.Fatalf("cycle %d: queue %d/pending %d, reference %d/%d",
				now, ch.QueueLen(), ch.Pending(), len(ref.queue), len(ref.queue)+len(ref.completed))
		}
		ne, refNE := ch.NextEvent(now), ref.NextEvent(now)
		if ne != refNE {
			t.Fatalf("cycle %d: NextEvent %d, reference %d", now, ne, refNE)
		}
		// Mix every-cycle stepping with event-horizon jumps, the two ways
		// the simulator drives a channel.
		if gen.rng.Intn(4) == 0 && refNE != ^uint64(0) {
			now = refNE
		} else {
			now++
		}
	}
	if !reflect.DeepEqual(returned, ref.issued) {
		t.Fatalf("completion order differs from issue order:\n got %v\nissue %v", returned, ref.issued)
	}
	if ch.Traffic != ref.traffic || ch.ReadsServed != ref.reads || ch.WritesServed != ref.writes {
		t.Fatalf("accounting differs: traffic %+v reads %d writes %d, reference %+v %d %d",
			ch.Traffic, ch.ReadsServed, ch.WritesServed, ref.traffic, ref.reads, ref.writes)
	}
	for i := range ref.banks {
		if b, rb := &ch.banks[i], &ref.banks[i]; b.rowHits != rb.rowHits || b.rowMisss != rb.rowMiss {
			t.Fatalf("bank %d: %d row hits / %d misses, reference %d / %d", i, b.rowHits, b.rowMisss, rb.rowHits, rb.rowMiss)
		}
	}
	// Probe stream: queue depth at every enqueue, and bank and latency of
	// every issue in issue order.
	if !reflect.DeepEqual(log.events, ref.log.events) {
		t.Fatalf("probe events differ from the reference's")
	}
	if full == 0 && cfg.QueueDepth < 16 {
		t.Errorf("stream never filled the depth-%d queue", cfg.QueueDepth)
	}
}

// TestSchedulerMatchesReference is the differential test against the
// retired scan-and-heap scheduler: identical accept/refuse decisions, issue
// order, done cycles, Tick outputs, NextEvent horizons and accounting.
func TestSchedulerMatchesReference(t *testing.T) {
	for _, banks := range []int{1, 2, 16, 128} {
		for _, depth := range []int{1, 2, 8, 64} {
			cfg := DefaultConfig()
			cfg.Banks = banks
			cfg.QueueDepth = depth
			for seed := int64(1); seed <= 3; seed++ {
				differential(t, cfg, seed, 3000, true)
			}
		}
	}
}

// TestFastBusEqualCycleCompletions pins the tie rule for buses faster than
// 32 B/cycle (BytesPerCycleFP > 8192): a transfer then occupies less than
// one cycle, several completions can share a done cycle, and they come back
// in issue order. The heap returned them in its layout's order; each
// cycle's set of completions is unchanged.
func TestFastBusEqualCycleCompletions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BytesPerCycleFP = 20000 // 78 B/cycle: 0.41 cycles per sector
	for _, depth := range []int{4, 64} {
		cfg.QueueDepth = depth
		for seed := int64(1); seed <= 3; seed++ {
			differential(t, cfg, seed, 3000, false)
		}
	}
	// A direct case: eight row hits issued in one cycle share done
	// cycles and come back in enqueue order.
	ch := NewChannel(cfg)
	ch.Enqueue(Req{Local: 0, Token: 100}, 0)
	drain(t, ch, 0)
	start := uint64(200)
	for i := uint64(0); i < 8; i++ {
		ch.Enqueue(Req{Local: memdef.Addr(i * memdef.SectorSize), Token: i}, start)
	}
	var order []uint64
	cycles := map[uint64]bool{}
	for now := start; !ch.Drained(); now++ {
		for _, r := range ch.Tick(now) {
			order = append(order, r.Token)
			cycles[now] = true
		}
	}
	if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Errorf("equal-cycle completions returned as %v, want issue order %v", order, want)
	}
	if len(cycles) >= 8 {
		t.Errorf("eight fast-bus transfers finished on %d distinct cycles; the case needs shared cycles", len(cycles))
	}
}

// TestSnapshotRoundTripMidRun captures a channel holding both queued and
// in-flight requests and requires the restored copy to continue exactly as
// the original does.
func TestSnapshotRoundTripMidRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 16
	ch := NewChannel(cfg)
	gen := &streamGen{rng: rand.New(rand.NewSource(7)), cfg: cfg}
	now := uint64(0)
	for ; ch.QueueLen() < 8 || ch.Pending()-ch.QueueLen() < 4; now++ {
		if now > 10000 {
			t.Fatal("never reached a mixed queued/in-flight state")
		}
		for k := gen.rng.Intn(4); k > 0; k-- {
			ch.Enqueue(gen.req(), now)
		}
		ch.Tick(now)
	}
	e := snapshot.NewEncoder()
	ch.WalkState(snapshot.Saving(e))
	restored := NewChannel(cfg)
	if err := restore(restored, e.Data()); err != nil {
		t.Fatal(err)
	}
	e2 := snapshot.NewEncoder()
	restored.WalkState(snapshot.Saving(e2))
	if !reflect.DeepEqual(e.Data(), e2.Data()) {
		t.Fatal("re-saving a restored channel changed the snapshot bytes")
	}
	lockstep(t, ch, restored, gen, now)
}

// lockstep feeds a and b the same stream from cycle now until both drain
// and requires identical outputs.
func lockstep(t *testing.T, a, b interface {
	Enqueue(Req, uint64) bool
	Tick(uint64) []Req
	NextEvent(uint64) uint64
}, gen *streamGen, now uint64) {
	t.Helper()
	stop := now + 2000
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("lockstep run did not drain")
		}
		if now < stop {
			for k := gen.rng.Intn(4); k > 0; k-- {
				r := gen.req()
				if a.Enqueue(r, now) != b.Enqueue(r, now) {
					t.Fatalf("cycle %d: Enqueue decisions differ", now)
				}
			}
		}
		ga, gb := tokens(a.Tick(now)), tokens(b.Tick(now))
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("cycle %d: Tick returned %v and %v", now, ga, gb)
		}
		na, nb := a.NextEvent(now), b.NextEvent(now)
		if na != nb {
			t.Fatalf("cycle %d: NextEvent %d and %d", now, na, nb)
		}
		if now >= stop && na == ^uint64(0) {
			return
		}
		now++
	}
}

// TestLoadsHeapOrderedSnapshot restores a snapshot written in the heap's
// backing-array order — the layout of files saved before completions were
// a FIFO — and requires the restored channel to continue exactly like the
// reference model that wrote it.
func TestLoadsHeapOrderedSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 32
	ref := newRefChannel(cfg)
	gen := &streamGen{rng: rand.New(rand.NewSource(11)), cfg: cfg}
	now := uint64(0)
	unsorted := func() bool {
		for i := 1; i < len(ref.completed); i++ {
			if ref.completed[i].cycle < ref.completed[i-1].cycle {
				return true
			}
		}
		return false
	}
	for ; len(ref.queue) < 4 || !unsorted(); now++ {
		if now > 100000 {
			t.Fatal("heap never held an unsorted backing array")
		}
		for k := gen.rng.Intn(4); k > 0; k-- {
			ref.Enqueue(gen.req(), now)
		}
		ref.Tick(now)
	}
	e := snapshot.NewEncoder()
	ref.SaveState(e)
	ch := NewChannel(cfg)
	if err := restore(ch, e.Data()); err != nil {
		t.Fatal(err)
	}
	lockstep(t, ref, ch, gen, now)
}

// restore walks payload into ch and returns the decoding error.
func restore(ch *Channel, payload []byte) error {
	d := snapshot.NewDecoder(payload)
	ch.WalkState(snapshot.Loading(d))
	return d.Err()
}
