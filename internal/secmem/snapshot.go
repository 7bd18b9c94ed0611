package secmem

import (
	"slices"

	"shmgpu/internal/flatmap"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/snapshot"
)

// Checkpoint/restore for the MEE. The restore target must be built by
// NewMEE with the identical config; structural parameters are validated
// by the embedded cache/predictor walks plus the feature flags here.
//
// The pooled transactions need special handling: live *txn pointers are
// shared between the pending table, the counter-wait lists, and the ready
// heap, so the serializer assigns each distinct transaction a canonical
// identifier (first-encounter order over a deterministic walk: pending
// table slot order, then the wait-list node arena in index order, then
// the ready heap array), writes one transaction table, and encodes every
// reference as an identifier. The free pool (txnFree) is not serialized —
// releaseTxn fully zeroes recycled transactions, so an empty pool after
// restore is behaviorally identical.
//
// Scratch that is never live at a cycle boundary is skipped: secBuf,
// bmtPathBuf/bmtSlotBuf, and the responses buffer's backing array
// (responses is drained by the caller within the same tick; its length is
// serialized anyway and asserted empty on restore via Idle-compatible
// content). Cold path only.

// collectTxns walks every structure holding *txn references in canonical
// order and returns the distinct transactions in first-encounter order
// plus the pointer→identifier index.
func (m *MEE) collectTxns() ([]*txn, map[*txn]int) {
	var order []*txn
	ids := make(map[*txn]int)
	visit := func(t *txn) {
		if t == nil {
			return
		}
		if _, ok := ids[t]; !ok {
			ids[t] = len(order)
			order = append(order, t)
		}
	}
	m.pending.Range(func(_ uint64, pe *pendingEntry) bool {
		visit(pe.txn)
		return true
	})
	flatmap.VisitMultiMapNodes(&m.ctrWait, func(v **txn) { visit(*v) })
	for i := range m.ready {
		visit(m.ready[i].t)
	}
	return order, ids
}

// WalkState saves or restores the MEE's mutable state. Loading rebuilds
// the transaction table and resolves every identifier against it.
func (m *MEE) WalkState(s *snapshot.State) {
	s.Match("MEE enabled", m.cfg.Enabled)
	s.Match("MEE oracle detectors", m.cfg.OracleDetectors)
	s.Match("MEE accuracy tracking", m.cfg.TrackAccuracy)
	if m.cfg.Enabled {
		m.ctrCache.WalkState(s)
		m.macCache.WalkState(s)
		m.bmtCache.WalkState(s)
		m.roPred.WalkState(s)
		m.stPred.WalkState(s)
		m.mats.WalkState(s)
		if m.cfg.OracleDetectors {
			snapshot.SortedMap(s, &m.roOracle, (*snapshot.State).Bool)
			snapshot.SortedMap(s, &m.stOracle, (*snapshot.State).Bool)
		}
		if m.cfg.TrackAccuracy {
			m.roAcc.WalkState(s)
			m.stAcc.WalkState(s)
		}
	}
	flatmap.WalkMap(s, &m.diverged, func(*snapshot.State, *struct{}) {})
	s.U64(&m.sharedCounter)
	ringbuf.Walk(s, &m.input, func(s *snapshot.State, en *inputEntry) {
		en.req.WalkState(s)
		s.U64(&en.at)
	})
	ringbuf.Walk(s, &m.outgoing, func(s *snapshot.State, o *outgoing) {
		s.Int(&o.part)
		o.req.WalkState(s)
	})

	var table []*txn
	var ids map[*txn]int
	if !s.Loading() {
		table, ids = m.collectTxns()
	}
	snapshot.Slice(s, &table, func(s *snapshot.State, pt **txn) {
		if s.Loading() {
			*pt = &txn{}
		}
		t := *pt
		t.req.WalkState(s)
		s.Bool(&t.haveData)
		s.Bool(&t.haveOTP)
		s.U64(&t.otpAt)
		s.U64(&t.dataAt)
		s.U64(&t.submitAt)
		s.Bool(&t.enqueued)
	})
	// ref walks one transaction reference as its table identifier (-1 for
	// nil).
	ref := func(s *snapshot.State, pt **txn) {
		id := -1
		if *pt != nil {
			id = ids[*pt]
		}
		s.Int(&id)
		if !s.Loading() {
			return
		}
		*pt = nil
		if id < -1 || id >= len(table) {
			s.Failf("secmem[%d]: transaction id %d out of range (%d transactions)", m.cfg.Partition, id, len(table))
		} else if id >= 0 {
			*pt = table[id]
		}
	}
	flatmap.WalkMap(s, &m.pending, func(s *snapshot.State, pe *pendingEntry) {
		s.U8((*uint8)(&pe.kind))
		s.U64((*uint64)(&pe.key))
		ref(s, &pe.txn)
	})
	flatmap.WalkMultiMap(s, &m.ctrWait, ref)
	// ready and responses keep their backing arrays across a restore.
	n := s.Len(len(m.ready))
	if s.Loading() {
		m.ready = slices.Grow(m.ready[:0], n)[:n]
	}
	for i := range m.ready {
		s.U64(&m.ready[i].at)
		ref(s, &m.ready[i].t)
	}
	n = s.Len(len(m.responses))
	if s.Loading() {
		m.responses = slices.Grow(m.responses[:0], n)[:n]
	}
	for i := range m.responses {
		m.responses[i].WalkState(s)
	}
	s.U64(&m.nextToken)
	s.U64(&m.aesFree)
	s.U64(&m.lastTick)
	if s.Loading() {
		m.txnFree = m.txnFree[:0]
	}
	m.Reg.WalkState(s)
}
