package workload

import (
	"testing"
	"time"

	"shmgpu/internal/snapshot"
)

// TestMaxDrawsPerInstMatchesGenerators runs one warp of every named
// workload to completion and pins maxDrawsPerInst to the most RNG values
// any single instruction drew. The restore path bounds a snapshot's draw
// count by it, so a generator that starts drawing more must raise it.
func TestMaxDrawsPerInstMatchesGenerators(t *testing.T) {
	var most uint64
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b.SetGrid(2, 2)
		p := b.NewWarp(0, 0, 0).(*program)
		for {
			before := p.rngSrc.n
			if _, _, done := p.Next(); done {
				break
			}
			if d := p.rngSrc.n - before; d > most {
				most = d
			}
		}
	}
	if most != maxDrawsPerInst {
		t.Errorf("the generators draw at most %d values per instruction, maxDrawsPerInst is %d", most, maxDrawsPerInst)
	}
}

// TestRestoreRejectsImplausibleDraws loads warp states whose issue
// position or RNG draw count no run can reach. Each must fail, and fail
// fast: the draw count drives a replay loop, and 1<<62 draws would spin
// for hours.
func TestRestoreRejectsImplausibleDraws(t *testing.T) {
	b, err := ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	b.SetGrid(2, 2)
	src := b.NewWarp(0, 0, 0).(*program)
	for i := 0; i < 10; i++ {
		src.Next()
	}
	load := func(t *testing.T, issued int, draws uint64) error {
		saved := &program{cursors: src.cursors, issued: issued, rngSrc: &countingSource{n: draws}}
		e := snapshot.NewEncoder()
		saved.WalkState(snapshot.Saving(e))
		dst := b.NewWarp(0, 0, 0).(*program)
		st := snapshot.Loading(snapshot.NewDecoder(e.Data()))
		done := make(chan error, 1)
		go func() {
			dst.WalkState(st)
			done <- st.Err()
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Second):
			t.Fatalf("restoring issued=%d draws=%d took over a second", issued, draws)
			return nil
		}
	}

	if err := load(t, src.issued, src.rngSrc.n); err != nil {
		t.Fatalf("intact warp state rejected: %v", err)
	}
	total := b.Spec().MemInstsPerWarp
	for _, tc := range []struct {
		name   string
		issued int
		draws  uint64
	}{
		{"draws 1<<62", src.issued, 1 << 62},
		{"draws one past the bound", src.issued, 2*maxDrawsPerInst*uint64(src.issued) + 1},
		{"draws with nothing issued", 0, 1},
		{"negative issued", -1, 0},
		{"issued past the program", total + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := load(t, tc.issued, tc.draws)
			if err == nil {
				t.Fatal("implausible warp state restored without error")
			}
			t.Log(err)
		})
	}
}
