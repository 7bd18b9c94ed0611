// Package snapshot mimics the simulator's checkpoint serializer for
// fixture purposes: the flow analyzers treat any function taking a pointer
// to one of its named types as implicitly cold.
package snapshot

// State is one direction of a snapshot walk.
type State struct{ loading bool }

// Loading reports whether the walk restores state.
func (s *State) Loading() bool { return s.loading }
