package core

import (
	"context"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/layout"
	"repro/internal/workload"
)

// BenchmarkProf2 is the end-to-end profiling benchmark for the search, in
// the shape of a cold benchmark search: one 15-iteration generation over the
// full SDSS log at the default rollout depth, with a fresh cache and a fresh
// seed per op, so a profile averages over trajectories instead of repeating
// one. Profile it with -cpuprofile to see the layers (move enumeration and
// its legality checks in eval.Engine.Moves, rollout sampling and its probes
// in eval.Engine.RandomMove, cost sampling in eval.Engine.StateCost). It
// reports process CPU time per op (cpu-ms/op) next to wall time.
func BenchmarkProf2(b *testing.B) {
	log := workload.SDSSLog()
	cpu, _ := benchutil.ProcessCPU()
	for i := 0; i < b.N; i++ {
		opt := Options{Screen: layout.Wide, Iterations: 15, Seed: int64(1 + i)}
		if _, err := Generate(context.Background(), log, opt); err != nil {
			b.Fatal(err)
		}
	}
	benchutil.ReportCPU(b, b.N, cpu)
}
