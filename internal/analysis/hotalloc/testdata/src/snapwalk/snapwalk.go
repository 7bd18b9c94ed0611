// Package snapwalk pins the implicit cold rule for snapshot walks: the
// same allocation is accepted in a function that takes a *snapshot.State
// and flagged in a tick-reachable function that does not.
package snapwalk

import "shmgpu/internal/snapshot"

type Engine struct {
	slots []int
	st    *snapshot.State
}

//shm:tick-root
func (e *Engine) tick() {
	e.walkState(e.st)
	e.rebuild(len(e.slots))
}

// walkState restores the slot table; taking a *snapshot.State marks it
// cold without an annotation.
func (e *Engine) walkState(s *snapshot.State) {
	if s.Loading() {
		e.slots = make([]int, 8)
	}
}

func (e *Engine) rebuild(n int) {
	e.slots = make([]int, n) // want `hot-path allocation: make`
}
