package search

import (
	"context"
	"testing"

	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/rules"
	"repro/internal/workload"
)

// TestStrategiesDoNotMutateCachedMoves is the cache-aliasing regression test
// for the whole consumer surface of Engine.Moves: the engine hands every
// caller the same cache-resident slice, so any strategy that compacts,
// sorts, or rewrites it in place corrupts the memoized answer for every
// later caller. Run all strategies over a shared engine, then verify the
// cached slice — including each move's path ints, which the snapshot
// deep-copies so shared backing arrays cannot mask a write — is untouched.
func TestStrategiesDoNotMutateCachedMoves(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	eng := eval.New(eval.Config{
		Log: log, Rules: rules.All(), SizeCap: SizeCap(init), Samples: 1, Seed: 1,
	}, eval.NewCache(0))

	cached := eng.Moves(init)
	if len(cached) == 0 {
		t.Fatal("no moves at the initial state")
	}
	snap := make([]rules.Move, len(cached))
	for i, m := range cached {
		snap[i] = rules.Move{Rule: m.Rule, Path: append(difftree.Path(nil), m.Path...)}
	}

	obj := func(d *difftree.Node) float64 { return float64(d.Size()) }
	ctx := context.Background()
	Random(ctx, init, eng, obj, 4, 6, 3)
	Greedy(ctx, init, eng, obj, 4)
	Beam(ctx, init, eng, obj, 3, 3)
	Exhaustive(ctx, init, eng, obj, 200)
	eng.Neighbors(init)

	if again := eng.Moves(init); !movesEqual(again, snap) {
		t.Errorf("cached move slice rewritten by a consumer:\n got %v\nwant %v", again, snap)
	}
	if !movesEqual(cached, snap) {
		t.Errorf("retained move slice rewritten in place:\n got %v\nwant %v", cached, snap)
	}
}

// movesEqual compares move lists by value, treating nil and empty paths as
// equal (reflect.DeepEqual would not).
func movesEqual(a, b []rules.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rule != b[i].Rule || len(a[i].Path) != len(b[i].Path) {
			return false
		}
		for j := range a[i].Path {
			if a[i].Path[j] != b[i].Path[j] {
				return false
			}
		}
	}
	return true
}
