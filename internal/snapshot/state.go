package snapshot

import (
	"fmt"
	"sort"
)

// State is one direction of a snapshot walk. It wraps either an Encoder
// (saving) or a Decoder (loading), and each field method either writes
// the value its pointer refers to or reads the next value into it. A
// component describes its serialized state once, as a walk over its
// fields in format order, and the same walk both saves and restores it,
// so the two directions cannot drift apart. Work that only one direction
// does — validating a restored index before it is used, rebuilding
// derived structures — sits under Loading().
//
// Errors are sticky. Loading shares the Decoder's error: after the first
// failure every read yields the zero value, so a walk runs to its end
// without checking after each field and the caller reads Err once.
// Saving keeps its own first error (a component that cannot be captured).
type State struct {
	e   *Encoder
	d   *Decoder
	err error
}

// Saving returns a State that walks fields into e.
func Saving(e *Encoder) *State { return &State{e: e} }

// Loading returns a State that walks fields out of d.
func Loading(d *Decoder) *State { return &State{d: d} }

// Loading reports whether the walk restores state (reads from a Decoder).
func (s *State) Loading() bool { return s.d != nil }

// Err returns the walk's first error, or nil.
func (s *State) Err() error {
	if s.d != nil {
		return s.d.Err()
	}
	return s.err
}

// Failf records a formatted error unless one is already set. Walks use it
// for semantic failures (a bad slot index, a program that cannot be
// captured) so one error path covers truncation, corruption and refusal.
func (s *State) Failf(format string, args ...any) {
	if s.d != nil {
		s.d.Failf(format, args...)
	} else if s.err == nil {
		s.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// U8 walks one byte.
func (s *State) U8(p *uint8) {
	if s.d != nil {
		*p = s.d.U8()
	} else {
		s.e.U8(*p)
	}
}

// I16 walks an int16.
func (s *State) I16(p *int16) {
	if s.d != nil {
		*p = s.d.I16()
	} else {
		s.e.I16(*p)
	}
}

// I32 walks an int32.
func (s *State) I32(p *int32) {
	if s.d != nil {
		*p = s.d.I32()
	} else {
		s.e.I32(*p)
	}
}

// U64 walks a uint64.
func (s *State) U64(p *uint64) {
	if s.d != nil {
		*p = s.d.U64()
	} else {
		s.e.U64(*p)
	}
}

// Int walks an int as a 64-bit value.
func (s *State) Int(p *int) {
	if s.d != nil {
		*p = s.d.Int()
	} else {
		s.e.Int(*p)
	}
}

// Bool walks a bool as one byte.
func (s *State) Bool(p *bool) {
	if s.d != nil {
		*p = s.d.Bool()
	} else {
		s.e.Bool(*p)
	}
}

// F64 walks a float64 bit pattern.
func (s *State) F64(p *float64) {
	if s.d != nil {
		*p = s.d.F64()
	} else {
		s.e.F64(*p)
	}
}

// String walks a length-prefixed string.
func (s *State) String(p *string) {
	if s.d != nil {
		*p = s.d.String()
	} else {
		s.e.String(*p)
	}
}

// Len walks the count of the elements that follow: saving writes n and
// returns it; loading returns the saved count, rejecting one that is
// negative or larger than the remaining payload could hold (Decoder.Len),
// so a corrupt count fails instead of driving a huge allocation.
func (s *State) Len(n int) int {
	if s.d != nil {
		return s.d.Len()
	}
	s.e.Int(n)
	return n
}

// Match walks a configuration or geometry value the restore target must
// share with the captured run: saving writes want; loading reads the saved
// value and fails unless it equals want. want is an int, uint64, bool or
// string.
func (s *State) Match(what string, want any) {
	var got any
	switch v := want.(type) {
	case int:
		s.Int(&v)
		got = v
	case uint64:
		s.U64(&v)
		got = v
	case bool:
		s.Bool(&v)
		got = v
	case string:
		s.String(&v)
		got = v
	default:
		panic(fmt.Sprintf("snapshot: Match of unsupported type %T", want))
	}
	if s.Loading() && s.Err() == nil && got != want {
		s.Failf("%s: snapshot has %v, this target has %v", what, got, want)
	}
}

// AsInt walks a narrow integer field in the 64-bit Int encoding.
func AsInt[T ~int32 | ~uint8](s *State, p *T) {
	v := int(*p)
	s.Int(&v)
	*p = T(v)
}

// Slice walks a length-prefixed slice, element by element. Loading
// replaces *p with a fresh slice of the saved length.
func Slice[T any](s *State, p *[]T, el func(*State, *T)) {
	n := s.Len(len(*p))
	if s.Loading() {
		*p = make([]T, n)
	}
	for i := range *p {
		el(s, &(*p)[i])
	}
}

// SortedMap walks a map keyed by uint64 as a count plus (key, value)
// pairs in ascending key order, so the bytes do not depend on map
// iteration order. Loading empties the map (allocating it when nil) and
// refills it.
func SortedMap[V any](s *State, m *map[uint64]V, val func(*State, *V)) {
	var keys []uint64
	if !s.Loading() {
		keys = make([]uint64, 0, len(*m))
		for k := range *m { //shmlint:allow maprange — keys are sorted before use
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	n := s.Len(len(keys))
	if s.Loading() {
		if *m == nil {
			*m = make(map[uint64]V, n)
		}
		clear(*m)
	}
	for i := 0; i < n; i++ {
		var k uint64
		var v V
		if !s.Loading() {
			k = keys[i]
			v = (*m)[k]
		}
		s.U64(&k)
		val(s, &v)
		if s.Loading() {
			(*m)[k] = v
		}
	}
}
