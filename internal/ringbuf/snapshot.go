package ringbuf

import "shmgpu/internal/snapshot"

// Checkpoint/restore for rings. Capacity and head are preserved verbatim
// (elements are written in logical order and placed back at the same
// physical slots); PopFront zeroes released slots, so the unoccupied part
// of the backing array is zero-valued on both sides of a round trip. Cold
// path only.

// maxRingCap bounds restored capacities so a corrupt capacity field fails
// cleanly instead of driving a huge allocation.
const maxRingCap = 1 << 30

// Walk saves or restores r: capacity, head, length, then every element in
// logical order through el. Loading replaces r's contents.
func Walk[T any](s *snapshot.State, r *Ring[T], el func(*snapshot.State, *T)) {
	capN, head, n := len(r.buf), r.head, r.n
	s.Int(&capN)
	s.Int(&head)
	s.Int(&n)
	if s.Loading() {
		if capN < 0 || capN > maxRingCap || (capN != 0 && capN&(capN-1) != 0) {
			s.Failf("ringbuf: bad capacity %d", capN)
			return
		}
		if n < 0 || n > capN || head < 0 || head > capN || (head == capN && capN != 0) {
			s.Failf("ringbuf: bad head %d / length %d for capacity %d", head, n, capN)
			return
		}
		*r = Ring[T]{head: head, n: n}
		if capN > 0 {
			r.buf = make([]T, capN)
		}
	}
	for i := 0; i < r.n; i++ {
		el(s, r.At(i))
	}
}
