// Package shard is the flagged fixture for shardsafety: a fork task that
// writes frozen shared state directly, through unscoped sharded indices,
// through mutating calls, and through reachable helpers and closures.
package shard

type mee struct{ n int }

func (m *mee) submit() { m.n++ }

type bank struct{ q []int }

func (b *bank) tick(m *mee) {
	b.q = b.q[:0]
	m.submit()
}

type entry struct {
	at uint64
	sm int
}

type Sys struct {
	queues [][]entry //shm:sharded
	l2     [][]*bank //shm:sharded
	mees   []*mee    //shm:sharded
	global []int
	ring   []entry
	shared *mee
}

type E struct {
	sys      *Sys
	lo, hi   []int    //shm:shard-bounds
	horizons []uint64 //shm:sharded
	outbox   [][]int  //shm:sharded
	scratch  []int
	fn       func()
}

var hits []int

//shm:fork-root
func (e *E) task(k int) {
	s := e.sys
	for p := e.lo[k]; p < e.hi[k]; p++ {
		q := s.queues[p]
		for i := range q {
			q[i].at++ // ok: element of the task's own shard
		}
		s.queues[p] = q[:0] // ok: sharded element at a task-scoped index
		m := s.mees[p]
		for _, b := range s.l2[p] {
			b.tick(m) // ok: receiver and argument are shard-private
		}
	}
	e.horizons[k] = 1   // ok: task-scoped horizon slot
	s.global[0] = 1     // want `forked-phase write to frozen shared state`
	s.ring = nil        // want `forked-phase write to frozen shared state`
	e.scratch[k] = 2    // want `forked-phase write to frozen shared state`
	s.ring[0] = entry{} //shm:shard-ok replay slot is exclusively ours during this phase
	j := 3
	e.horizons[j] = 4 // want `index not provably task-scoped`
	e.outbox = nil    // want `replaces //shm:sharded collection`
}

//shm:fork-root
func (e *E) task2(k int) {
	s := e.sys
	s.shared.submit() // want `writes its receiver`
	b := s.l2[k][0]
	b.tick(s.shared) // want `writes its argument`
	for _, owner := range s.global {
		if owner >= 0 && owner < len(s.mees) {
			s.mees[owner].submit() // want `writes its receiver`
		}
	}
	e.emit(k)
	e.fn()
}

func (e *E) emit(k int) {
	hits = append(hits, k) // want `forked-phase write to package-level state`
}

func (e *E) wire() {
	p := 0
	e.fn = func() {
		e.outbox[p] = append(e.outbox[p], 1) // want `forked-phase write to enclosing-scope state`
	}
}
