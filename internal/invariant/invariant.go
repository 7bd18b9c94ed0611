// Package invariant is the simulator's runtime sanitizer: cheap, centrally
// gated consistency checks at the cycle model's choke points (request
// conservation across the DRAM queues, clock monotonicity, MSHR and queue
// occupancy bounds, BMT node consistency, counter overflow), reporting
// violations with full context — check name, component, cycle, detail —
// instead of bare panics.
//
// # Gating and cost
//
// Expensive detection work must sit behind Enabled():
//
//	if invariant.Enabled() {
//		if leaked := ch.enqueued - ch.served(); leaked != 0 { ... }
//	}
//
// Enabled() is a single package-level bool load, so the sanitizer-off
// configuration adds one predictable branch per check site and nothing
// else; this is the same zero-overhead contract the telemetry probes keep.
// The default is off; it turns on under the `shmcheck` build tag, via the
// SHMGPU_CHECK environment variable, or programmatically with SetEnabled
// (shmsim exposes it as the -check flag).
//
// # Panic policy (the panic / invariant split)
//
// The simulator distinguishes two failure classes, and shmlint's analyzers
// plus this package make the split mechanical:
//
//   - panic() is reserved for programmer error detectable without
//     simulating: invalid configuration at construction time (Config
//     validation in New* functions), API misuse with a documented calling
//     contract (bmt.Tree.Update before Rebuild, short serialization
//     buffers), and impossible states in pure data structures.
//
//   - invariant.Failf reports cycle-model invariant violations: states that
//     can only arise mid-simulation from a modeling bug and that would
//     silently corrupt the paper's comparisons (a leaked request, a clock
//     running backwards, an occupancy bound exceeded). Failf always
//     reports, even when Enabled() is false — gating applies to the cost
//     of detecting a violation, never to the cost of reporting one that a
//     always-on guard already caught.
//
// By default a violation panics with a *Violation carrying the full
// context; tests install a recording handler via SetHandler.
package invariant

import (
	"fmt"
	"os"
)

// enabled gates the expensive detection checks. Initialized from the
// shmcheck build tag (see enabled_on.go / enabled_off.go) and the
// SHMGPU_CHECK environment variable; mutable via SetEnabled.
var enabled = defaultEnabled || os.Getenv("SHMGPU_CHECK") != ""

// Enabled reports whether expensive invariant checking is on. Check sites
// on hot paths must consult this before doing any detection work.
func Enabled() bool { return enabled }

// SetEnabled turns expensive invariant checking on or off at runtime.
// Toggle before a run starts; checks that accumulate state (request
// conservation counters) are only coherent when the setting is constant
// for a whole run.
func SetEnabled(v bool) { enabled = v }

// Violation is one detected invariant violation with its full context.
type Violation struct {
	// Check names the violated invariant ("request-conservation",
	// "clock-monotonic", "arrival-monotonic", "completion-order",
	// "mshr-occupancy", "queue-occupancy", "bmt-consistency",
	// "counter-overflow", "drain-convergence", "warp-residency").
	Check string
	// Component identifies the violating instance ("dram[3]", "cache l2",
	// "sm[12]", "bmt[p0]", "system").
	Component string
	// Cycle is the simulated cycle at detection time (0 when the component
	// has no clock, e.g. the cache state machine).
	Cycle uint64
	// Detail is the formatted, check-specific context (request ids,
	// occupancy numbers, counter names).
	Detail string
}

// Error implements error so violations can flow through error paths.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant violation [%s] component=%s cycle=%d: %s",
		v.Check, v.Component, v.Cycle, v.Detail)
}

// Handler consumes reported violations. The default handler panics with
// the *Violation; tests substitute a recorder.
type Handler func(*Violation)

var handler Handler = func(v *Violation) { panic(v) }

// SetHandler installs h as the violation handler and returns the previous
// one. A nil h restores the default panicking handler.
func SetHandler(h Handler) Handler {
	prev := handler
	if h == nil {
		h = func(v *Violation) { panic(v) }
	}
	handler = h
	return prev
}

// CollectInto arms the sanitizer and records every reported violation
// into dst instead of panicking, returning a restore function that
// reinstates the previous handler and enablement. It is the harness-side
// adapter that lets the differential-fuzzing oracles (internal/fuzz) and
// tests reuse the runtime checks as a recording oracle:
//
//	var got []invariant.Violation
//	restore := invariant.CollectInto(&got)
//	defer restore()
func CollectInto(dst *[]Violation) (restore func()) {
	prevEnabled := Enabled()
	SetEnabled(true)
	prevHandler := SetHandler(func(v *Violation) { *dst = append(*dst, *v) })
	return func() {
		SetHandler(prevHandler)
		SetEnabled(prevEnabled)
	}
}

// Failf reports a violation of check on component at cycle with formatted
// detail. It always reports regardless of Enabled(): gating is the check
// site's job (and only for detection work that costs more than a branch).
func Failf(check, component string, cycle uint64, format string, args ...any) {
	handler(&Violation{
		Check:     check,
		Component: component,
		Cycle:     cycle,
		Detail:    fmt.Sprintf(format, args...),
	})
}
