package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// Cell is one simulation: a configuration, a fresh workload instance and
// one scheme's options under a label. It is the one place a gpu.System is
// built, run, warmed to a checkpoint and resumed from one. The figure
// runner, the fork sweeps, the root package's Run API, the fuzz oracles
// and the equivalence corpora all run through it.
type Cell struct {
	Cfg gpu.Config
	// Bench is used by exactly one run: a workload carries per-run
	// frontier-pacing state.
	Bench gpu.Workload
	Opts  secmem.Options
	// Scheme labels the run: it is stamped on Result.Scheme and from there
	// on every rendered artifact.
	Scheme string
	// Col, when non-nil, is attached as the run's telemetry collector.
	Col *telemetry.Collector
	// Obs, when non-nil, receives the run's heartbeats and phase spans.
	Obs *obs.Run
	// Cancel additionally makes the run honour Obs's cancel flag. The fuzz
	// battery leaves it unset: a run cancelled mid-battery would poison
	// its byte comparisons, so the fuzz watchdog only dumps.
	Cancel bool
}

// NewCell builds the cell for a named workload (seed 0 keeps the
// benchmark's built-in seed) under sch, with no collector or observer.
func NewCell(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme) (Cell, error) {
	bench, err := workload.ByNameSeeded(wl, seed)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Cfg: cfg, Bench: bench, Opts: sch.Options, Scheme: sch.Name}, nil
}

func (c Cell) system() *gpu.System {
	sys := gpu.NewSystem(c.Cfg, c.Opts)
	if c.Col != nil {
		sys.AttachTelemetry(c.Col)
	}
	if c.Obs != nil {
		sys.SetObserver(c.Obs, 0)
		if c.Cancel {
			sys.SetCancel(c.Obs.CancelFlag())
		}
	}
	return sys
}

// Run simulates the cell to completion.
func (c Cell) Run() gpu.Result {
	res := c.system().Run(c.Bench)
	res.Scheme = c.Scheme
	return res
}

// Warm runs the cell to warmCycle and returns its serialized state. A nil
// blob with a nil error means the workload completed before the boundary,
// leaving nothing to capture.
func (c Cell) Warm(warmCycle uint64) ([]byte, error) {
	sys := c.system()
	if _, done := sys.RunUntil(c.Bench, warmCycle); done {
		return nil, nil
	}
	enc := snapshot.NewEncoder()
	err := sys.SaveState(enc, c.Bench)
	sys.Shutdown()
	if err != nil {
		return nil, err
	}
	return enc.Data(), nil
}

// Resume restores blob into a fresh system under c.Cfg and runs it to
// completion. blob must come from Warm on a cell with the same workload,
// scheme and collector configuration; c.Cfg may vary only the
// execution-strategy knobs (the snapshot's fingerprint rejects the rest).
func (c Cell) Resume(blob []byte) (gpu.Result, error) {
	sys := c.system()
	if err := sys.LoadState(snapshot.NewDecoder(blob), c.Bench); err != nil {
		return gpu.Result{}, err
	}
	res := sys.Resume(c.Bench)
	res.Scheme = c.Scheme
	return res, nil
}

// TelemetrySummary converts a simulation result into the neutral RunSummary
// the telemetry exporters consume. The telemetry package cannot import gpu
// (the probe-bearing packages import telemetry), so the conversion lives
// here, above both.
func TelemetrySummary(res gpu.Result) telemetry.RunSummary {
	return telemetry.RunSummary{
		Workload:       res.Workload,
		Scheme:         res.Scheme,
		Cycles:         res.Cycles,
		Instructions:   res.Instructions,
		IPC:            res.IPC(),
		Completed:      res.Completed,
		BusUtilization: res.BusUtilization,
		Traffic:        res.Traffic,
		Caches: []telemetry.NamedCache{
			{Name: "l1", Stats: res.L1},
			{Name: "l2", Stats: res.L2},
			{Name: "ctr_mdc", Stats: res.Ctr},
			{Name: "mac_mdc", Stats: res.MAC},
			{Name: "bmt_mdc", Stats: res.BMT},
		},
		RO:       res.ROAccuracy,
		Stream:   res.StreamAccuracy,
		Counters: res.Reg.Snapshot(),
	}
}

// Artifacts is everything observable about one finished run, in
// byte-comparable form. Two runs are byte-identical in the repo's sense
// exactly when their Artifacts are equal.
type Artifacts struct {
	Result   string // the Result's value fields (ResultLine)
	Snapshot []byte // the stats registry snapshot as JSON
	JSONL    []byte // the telemetry JSONL export
}

// ResultLine renders every Result value field. The Result carries the
// registry pointer, so the struct itself cannot be compared; the registry
// is covered by the snapshot instead.
func ResultLine(res gpu.Result) string {
	return fmt.Sprintf(
		"cycles=%d insts=%d traffic=%+v l1=%+v l2=%+v ctr=%+v mac=%+v bmt=%+v ro=%+v stream=%+v bus=%.9f victim=%d/%d completed=%v",
		res.Cycles, res.Instructions, res.Traffic, res.L1, res.L2,
		res.Ctr, res.MAC, res.BMT, res.ROAccuracy, res.StreamAccuracy,
		res.BusUtilization, res.VictimHits, res.VictimPushes, res.Completed)
}

// Render turns a finished run and its collector into Artifacts. The JSONL
// manifest carries tool, the run's workload and scheme, cfg's geometry and
// seed, and no wall-clock field, so identical runs render identically.
func Render(res gpu.Result, col *telemetry.Collector, cfg gpu.Config, tool string, seed int64) (Artifacts, error) {
	snap, err := json.Marshal(res.Reg.Snapshot())
	if err != nil {
		return Artifacts{}, err
	}
	m := telemetry.Manifest{
		Tool:          tool,
		SchemaVersion: telemetry.SchemaVersion,
		Workload:      res.Workload,
		Scheme:        res.Scheme,
		SMs:           cfg.SMs,
		Partitions:    cfg.Partitions,
		Seed:          seed,
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, col, TelemetrySummary(res), m); err != nil {
		return Artifacts{}, err
	}
	return Artifacts{Result: ResultLine(res), Snapshot: snap, JSONL: buf.Bytes()}, nil
}

// Diff describes each part in which a (labelled aName) differs from b
// (labelled bName); it is empty when the two are byte-identical.
func (a Artifacts) Diff(aName string, b Artifacts, bName string) []string {
	var out []string
	if a.Result != b.Result {
		out = append(out, fmt.Sprintf("Result diverges:\n%s: %s\n%s: %s",
			aName, truncate(a.Result), bName, truncate(b.Result)))
	}
	if !bytes.Equal(a.Snapshot, b.Snapshot) {
		out = append(out, fmt.Sprintf("stats snapshots diverge:\n%s: %s\n%s: %s",
			aName, truncate(string(a.Snapshot)), bName, truncate(string(b.Snapshot))))
	}
	if !bytes.Equal(a.JSONL, b.JSONL) {
		out = append(out, fmt.Sprintf("telemetry JSONL diverges (%s: %d bytes, %s: %d bytes)",
			aName, len(a.JSONL), bName, len(b.JSONL)))
	}
	return out
}

func truncate(s string) string {
	if len(s) <= 400 {
		return s
	}
	return s[:400] + "..."
}
