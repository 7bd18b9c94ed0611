// Package shardok is the accepted fixture for shardsafety: the shapes of
// the real parallel engine's shard tasks — bounds-seeded loops over
// sharded collections, the range guards that claim this task's ring
// entries and completion owners, the ownership panic guard, and
// arithmetic horizon slots.
// shardsafety must stay silent.
package shardok

type entry struct {
	at uint64
	sm int
}

type ring struct{ es []entry }

func (r *ring) At(i int) *entry { return &r.es[i] }
func (r *ring) Len() int        { return len(r.es) }

type sm struct{ fills int }

func (m *sm) onFill(at uint64) { m.fills++ }

type chanDone struct{ token int }

type channel struct{ done []chanDone }

func (c *channel) Tick() []chanDone { return c.done }

type mee struct{ pending int }

func (m *mee) OnDone(d chanDone) { m.pending-- }

func ownerOf(d chanDone) int { return d.token }

type Sys struct {
	sms      []*sm      //shm:sharded
	mees     []*mee     //shm:sharded
	channels []*channel //shm:sharded
	toSM     ring
	matured  int
}

type E struct {
	sys            *Sys
	smLo, smHi     []int    //shm:shard-bounds
	partLo, partHi []int    //shm:shard-bounds
	horizons       []uint64 //shm:sharded
	shards         int
	now            uint64
}

//shm:fork-root
func (e *E) smTask(k int) {
	s := e.sys
	lo, hi := e.smLo[k], e.smHi[k]
	next := e.now + 1
	for i := lo; i < hi; i++ {
		s.sms[i].onFill(e.now) // ok: bounds-seeded loop over the sharded collection
	}
	for j := 0; j < s.matured; j++ {
		en := s.toSM.At(j)
		if en.sm >= lo && en.sm < hi {
			s.sms[en.sm].onFill(en.at) // ok: range guard makes en.sm task-scoped
		}
	}
	e.horizons[e.shards+k] = next // ok: arithmetic over the shard parameter
}

//shm:fork-root
func (e *E) partTask(k int) {
	s := e.sys
	for p := e.partLo[k]; p < e.partHi[k]; p++ {
		for _, done := range s.channels[p].Tick() {
			owner := ownerOf(done)
			if owner != p {
				panic("cross-partition completion")
			}
			s.mees[owner].OnDone(done) // ok: ownership guard makes owner task-scoped
		}
	}
	e.horizons[k] = 0 // ok: the task's own horizon slot
}

//shm:fork-root
func (e *E) partTaskRouted(k int) {
	s := e.sys
	lo, hi := e.partLo[k], e.partHi[k]
	for p := lo; p < hi; p++ {
		for _, done := range s.channels[p].Tick() {
			if owner := ownerOf(done); owner >= lo && owner < hi {
				s.mees[owner].OnDone(done) // ok: range guard makes owner task-scoped
			}
		}
	}
}
