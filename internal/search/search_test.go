package search_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/workload"
)

// engineFor builds the uncached engine these tests search with: the full
// rule set and the size cap core uses, recomputing every move list.
func engineFor(init *difftree.Node, log []*ast.Node) *eval.Engine {
	return eval.New(eval.Config{Log: log, Rules: rules.All(), SizeCap: search.SizeCap(init)}, nil)
}

func TestGreedyImproves(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Default(layout.Wide)
	obj := func(d *difftree.Node) float64 {
		return eval.SampledCost(d, log, model, 3, 1)
	}
	res := search.Greedy(context.Background(), init, engineFor(init, log), obj, 30)
	if res.BestCost > obj(init) {
		t.Errorf("greedy regressed: %f", res.BestCost)
	}
	if res.States == 0 {
		t.Error("counters empty")
	}
	if !difftree.ExpressibleAll(res.Best, log) {
		t.Error("greedy lost queries")
	}
}

func TestRandomFindsSomething(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	model := cost.Default(layout.Wide)
	obj := func(d *difftree.Node) float64 {
		return eval.SampledCost(d, log, model, 2, 2)
	}
	res := search.Random(context.Background(), init, engineFor(init, log), obj, 4, 6, 7)
	if math.IsInf(res.BestCost, 1) {
		t.Error("random found nothing finite")
	}
	if res.States < 2 {
		t.Error("random never moved")
	}
}

func TestBeamAtLeastGreedy(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	model := cost.Default(layout.Wide)
	// Deterministic objective (k=0: first assignment only) so beam ⊇ greedy
	// comparisons are meaningful.
	obj := func(d *difftree.Node) float64 {
		return eval.SampledCost(d, log, model, 0, 3)
	}
	g := search.Greedy(context.Background(), init, engineFor(init, log), obj, 10)
	b := search.Beam(context.Background(), init, engineFor(init, log), obj, 3, 10)
	if b.BestCost > g.BestCost+1e-9 {
		t.Errorf("beam(3) worse than greedy: %f vs %f", b.BestCost, g.BestCost)
	}
}

func TestExhaustiveTinySpace(t *testing.T) {
	// Two queries differing in one literal: the space is tiny.
	log := workload.PaperFigure1Log()[:2]
	init, _ := difftree.Initial(log)
	model := cost.Default(layout.Wide)
	obj := func(d *difftree.Node) float64 {
		return eval.SampledCost(d, log, model, 0, 4)
	}
	res, complete := search.Exhaustive(context.Background(), init, engineFor(init, log), obj, 3000)
	if !complete {
		t.Logf("space larger than cap (states=%d)", res.States)
	}
	// Exhaustive (even capped) must beat or match greedy.
	g := search.Greedy(context.Background(), init, engineFor(init, log), obj, 10)
	if complete && res.BestCost > g.BestCost+1e-9 {
		t.Errorf("exhaustive worse than greedy: %f vs %f", res.BestCost, g.BestCost)
	}
	if res.States == 0 {
		t.Error("no states")
	}
}

func TestExhaustiveCap(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	obj := func(d *difftree.Node) float64 { return float64(d.Size()) }
	res, complete := search.Exhaustive(context.Background(), init, engineFor(init, log), obj, 5)
	if complete {
		t.Error("cap of 5 must not complete")
	}
	if res.States != 5 {
		t.Errorf("states = %d, want 5", res.States)
	}
}

func TestCancelledContextReturnsBestSoFar(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	obj := func(d *difftree.Node) float64 { return float64(d.Size()) }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() search.Result{
		"random": func() search.Result { return search.Random(ctx, init, engineFor(init, log), obj, 100, 100, 1) },
		"greedy": func() search.Result { return search.Greedy(ctx, init, engineFor(init, log), obj, 100) },
		"beam":   func() search.Result { return search.Beam(ctx, init, engineFor(init, log), obj, 5, 100) },
		"exhaustive": func() search.Result {
			r, complete := search.Exhaustive(ctx, init, engineFor(init, log), obj, 1<<20)
			if complete {
				t.Errorf("exhaustive: cancelled sweep must not report completeness")
			}
			return r
		},
	} {
		res := run()
		if !res.Interrupted {
			t.Errorf("%s: cancelled search must report Interrupted", name)
		}
		if res.Best == nil {
			t.Errorf("%s: cancelled search must return best-so-far (at least init)", name)
		}
		// Only the pre-cancellation init evaluation may have happened.
		if res.States > 1 {
			t.Errorf("%s: cancelled search kept evaluating (%d states)", name, res.States)
		}
	}
}

func TestRandomDeterministicSeed(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	obj := func(d *difftree.Node) float64 { return float64(d.Size()) }
	a := search.Random(context.Background(), init, engineFor(init, log), obj, 3, 5, 11)
	b := search.Random(context.Background(), init, engineFor(init, log), obj, 3, 5, 11)
	if a.BestCost != b.BestCost || a.States != b.States {
		t.Error("random search must be deterministic per seed")
	}
}

// TestStrategiesOnFigure1 pins each strategy's outcome on the paper's
// Figure 1 log under a state-seeded objective: best cost, state count (one
// objective call each), and the best tree's hash. Any change to move
// enumeration or to a strategy's loop that alters a search trajectory shows
// up here.
func TestStrategiesOnFigure1(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	eng := eval.New(eval.Config{
		Log: log, Model: cost.Default(layout.Wide), Samples: 3,
		Rules: rules.All(), SizeCap: search.SizeCap(init), Seed: 1,
	}, nil)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		run    func() search.Result
		cost   float64
		states int
		hash   uint64
	}{
		{"random", func() search.Result { return search.Random(ctx, init, eng, eng.StateCost, 4, 8, 1) },
			7.2, 33, 0x14d9fef46c5a6276},
		{"greedy", func() search.Result { return search.Greedy(ctx, init, eng, eng.StateCost, 12) },
			7.2, 7, 0x14d9fef46c5a6276},
		{"beam", func() search.Result { return search.Beam(ctx, init, eng, eng.StateCost, 3, 8) },
			6.9, 130, 0xe4c037a9cf723b08},
		{"exhaustive", func() search.Result { r, _ := search.Exhaustive(ctx, init, eng, eng.StateCost, 300); return r },
			6.9, 300, 0xe4c037a9cf723b08},
	} {
		r := tc.run()
		if r.BestCost != tc.cost || r.States != tc.states || difftree.Hash(r.Best) != tc.hash {
			t.Errorf("%s: cost %v states %d hash %#x, want %v %d %#x",
				tc.name, r.BestCost, r.States, difftree.Hash(r.Best), tc.cost, tc.states, tc.hash)
		}
	}
}
