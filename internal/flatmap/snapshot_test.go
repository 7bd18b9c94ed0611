package flatmap

import (
	"testing"
	"time"

	"shmgpu/internal/snapshot"
)

// corruptibleMultiMap returns a multimap with two live lists (key 10:
// nodes 0→2, key 20: node 1) and one recycled node (3) on the free list.
func corruptibleMultiMap() *MultiMap[int] {
	mm := &MultiMap[int]{}
	mm.Add(10, 1)
	mm.Add(20, 2)
	mm.Add(10, 3)
	mm.Add(30, 4)
	mm.Drain(30, func(int) {})
	return mm
}

// roundTrip saves mm and loads the payload into a fresh multimap. A load
// that takes longer than a few seconds is reported as a hang.
func roundTrip(t *testing.T, mm *MultiMap[int]) (*MultiMap[int], error) {
	t.Helper()
	e := snapshot.NewEncoder()
	WalkMultiMap(snapshot.Saving(e), mm, (*snapshot.State).Int)
	got := &MultiMap[int]{}
	done := make(chan error, 1)
	go func() {
		st := snapshot.Loading(snapshot.NewDecoder(e.Data()))
		WalkMultiMap(st, got, (*snapshot.State).Int)
		done <- st.Err()
	}()
	select {
	case err := <-done:
		return got, err
	case <-time.After(5 * time.Second):
		t.Fatal("restoring the multimap hung")
		return nil, nil
	}
}

// TestWalkMultiMapRejectsCorruptLinks feeds hand-corrupted multimap
// payloads to the restore walk. Each must fail with an error: a corrupt
// link accepted here would panic in a later Add or Drain, or loop forever.
func TestWalkMultiMapRejectsCorruptLinks(t *testing.T) {
	got, err := roundTrip(t, corruptibleMultiMap())
	if err != nil {
		t.Fatalf("intact multimap rejected: %v", err)
	}
	got.Add(10, 5)
	var order []int
	got.Drain(10, func(v int) { order = append(order, v) })
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 5 {
		t.Fatalf("restored list 10 drains %v, want [1 3 5]", order)
	}

	ref := func(mm *MultiMap[int], k uint64) *listRef { return mm.m.Get(k) }
	for _, tc := range []struct {
		name    string
		corrupt func(mm *MultiMap[int])
	}{
		{"next past the arena", func(mm *MultiMap[int]) { mm.nodes[0].next = 99 }},
		{"negative next", func(mm *MultiMap[int]) { mm.nodes[0].next = -5 }},
		{"head past the arena", func(mm *MultiMap[int]) { ref(mm, 10).head = 100 }},
		{"empty list under a key", func(mm *MultiMap[int]) { *ref(mm, 20) = listRef{} }},
		{"tail off the list", func(mm *MultiMap[int]) { ref(mm, 10).tail = 2 }},
		{"list ends early", func(mm *MultiMap[int]) { mm.nodes[0].next = -1 }},
		{"cycle in a list", func(mm *MultiMap[int]) { mm.nodes[2].next = 0 }},
		{"lists share a node", func(mm *MultiMap[int]) { mm.nodes[1].next = 2; ref(mm, 20).tail = 3 }},
		{"free list into a list", func(mm *MultiMap[int]) { mm.nodes[3].next = 1 }},
		{"free list cycle", func(mm *MultiMap[int]) { mm.nodes[3].next = 3 }},
		{"free head past the arena", func(mm *MultiMap[int]) { mm.free = 7 }},
		{"orphaned node", func(mm *MultiMap[int]) { mm.free = -1 }},
		{"count too high", func(mm *MultiMap[int]) { mm.vals = 5 }},
		{"negative count", func(mm *MultiMap[int]) { mm.vals = -1 }},
		{"uninitialized with nodes", func(mm *MultiMap[int]) { mm.init = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mm := corruptibleMultiMap()
			tc.corrupt(mm)
			_, err := roundTrip(t, mm)
			if err == nil {
				t.Fatal("corrupt multimap restored without error")
			}
			t.Log(err)
		})
	}
}
