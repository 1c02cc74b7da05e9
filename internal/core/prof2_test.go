package core

import (
	"context"
	"testing"

	"repro/internal/layout"
	"repro/internal/workload"
)

// BenchmarkProf2 is the end-to-end profiling benchmark for the search: one
// 5-iteration generation over the full SDSS log with a cold cache. Profile
// it with -cpuprofile to see the layers (move enumeration and its
// legality checks in eval.Engine.Moves, rollout sampling and its probes in
// domain.RandomNeighbor, cost sampling in eval.Engine.StateCost).
func BenchmarkProf2(b *testing.B) {
	log := workload.SDSSLog()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(context.Background(), log, Options{Screen: layout.Wide, Iterations: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
