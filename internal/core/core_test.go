package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/workload"
)

func fastOpts(screen layout.Screen) Options {
	return Options{
		Screen:        screen,
		Iterations:    12,
		RolloutDepth:  8,
		RewardSamples: 3,
		EnumLimit:     3000,
		Seed:          1,
	}
}

func TestGenerateFigure1(t *testing.T) {
	log := workload.PaperFigure1Log()
	res, err := Generate(context.Background(), log, fastOpts(layout.Wide))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Valid {
		t.Fatalf("generated interface invalid: %s", res.Cost.Reason)
	}
	if res.UI == nil {
		t.Fatal("no UI")
	}
	if !difftree.ExpressibleAll(res.DiffTree, log) {
		t.Fatal("result difftree lost input queries")
	}
	// Search must not end worse than the initial state.
	if res.Cost.Total() > res.Initial.Total() {
		t.Errorf("search regressed: %f > %f", res.Cost.Total(), res.Initial.Total())
	}
	if res.Stats.Iterations != 12 || res.Stats.Evals == 0 {
		t.Errorf("stats wrong: %+v", res.Stats)
	}
	if res.Describe() == "" {
		t.Error("Describe empty")
	}
}

func TestGenerateImprovesOnInitialSDSS(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.SDSSLog()
	opt := fastOpts(layout.Wide)
	opt.Iterations = 15
	res, err := Generate(context.Background(), log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Valid {
		t.Fatalf("invalid: %s", res.Cost.Reason)
	}
	// The factored interface should beat the initial one-dropdown-of-queries
	// interface, whose U cost is huge (every transition re-picks a query).
	if res.Cost.Total() >= res.Initial.Total() {
		t.Errorf("no improvement: best=%f initial=%f", res.Cost.Total(), res.Initial.Total())
	}
	if !difftree.ExpressibleAll(res.DiffTree, log) {
		t.Fatal("result lost queries")
	}
}

func TestGenerateEmptyLog(t *testing.T) {
	if _, err := Generate(context.Background(), nil, Options{}); err == nil {
		t.Fatal("empty log must error")
	}
}

func TestGenerateSingleQuery(t *testing.T) {
	log := workload.SDSSSubset(1, 1)
	res, err := Generate(context.Background(), log, fastOpts(layout.Wide))
	if err != nil {
		t.Fatal(err)
	}
	// One distinct query: a static interface with no widgets and zero cost.
	if res.UI != nil {
		t.Error("single query should need no widgets")
	}
	if res.Cost.Total() != 0 {
		t.Errorf("static cost = %f", res.Cost.Total())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Screen != layout.Wide || o.RolloutDepth != 16 || o.RewardSamples != 5 ||
		o.ExplorationC != math.Sqrt2 || o.EnumLimit != 20000 || o.Seed != 1 ||
		o.Iterations != 60 {
		t.Errorf("defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Iterations: 3, RolloutDepth: 7, Seed: 42}.withDefaults()
	if o2.Iterations != 3 || o2.RolloutDepth != 7 || o2.Seed != 42 {
		t.Error("explicit options clobbered")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	log := workload.PaperFigure1Log()
	a, err := Generate(context.Background(), log, fastOpts(layout.Wide))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(context.Background(), log, fastOpts(layout.Wide))
	if err != nil {
		t.Fatal(err)
	}
	if !difftree.Equal(a.DiffTree, b.DiffTree) {
		t.Error("same seed produced different difftrees")
	}
	if a.Cost.Total() != b.Cost.Total() {
		t.Error("same seed produced different costs")
	}
	opt := fastOpts(layout.Wide)
	opt.Seed = 777
	c, err := Generate(context.Background(), log, opt)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seeds may or may not differ; just must not crash
}

func TestBestInterfaceExhaustiveVsSampled(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	model := cost.Default(layout.Wide)
	_, bdFull, complete := BestInterface(init, log, model, 100000, 1)
	if !complete {
		t.Fatal("small space should enumerate exhaustively")
	}
	_, bdCapped, capped := BestInterface(init, log, model, 2, 1)
	if capped {
		t.Fatal("cap of 2 cannot be exhaustive for a multi-decision plan")
	}
	if bdFull.Total() > bdCapped.Total() {
		t.Error("exhaustive enumeration cannot be worse than sampling")
	}
}

func TestFanoutSDSS(t *testing.T) {
	log := workload.SDSSLog()
	init, _ := difftree.Initial(log)
	fan := Fanout(init, log, rules.All())
	if fan < 10 {
		t.Errorf("SDSS initial fanout = %d, expected >= 10", fan)
	}
	if fan > 200 {
		t.Errorf("SDSS initial fanout = %d, out of the paper's regime", fan)
	}
}

func TestRandomWalkProducesValidState(t *testing.T) {
	log := workload.PaperFigure1Log()
	d, err := RandomWalk(log, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := difftree.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !difftree.ExpressibleAll(d, log) {
		t.Fatal("random walk lost queries")
	}
	if _, err := RandomWalk(nil, 3, 1); err == nil {
		t.Error("empty log must error")
	}
	// Zero steps returns the initial state.
	d0, _ := RandomWalk(log, 0, 1)
	init, _ := difftree.Initial(log)
	if !difftree.Equal(d0, init) {
		t.Error("zero-step walk should be the initial state")
	}
}

// TestNarrowScreenChangesInterface is the Figure 6(a)-vs-(b) mechanism: the
// same log under a narrow screen must still produce a valid interface, and
// the wide screen's interface is not required to fit the narrow screen.
func TestNarrowScreenChangesInterface(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.SDSSLog()
	wide, err := Generate(context.Background(), log, fastOpts(layout.Wide))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Generate(context.Background(), log, fastOpts(layout.Narrow))
	if err != nil {
		t.Fatal(err)
	}
	if !wide.Cost.Valid || !narrow.Cost.Valid {
		t.Fatalf("wide valid=%v narrow valid=%v (%s / %s)",
			wide.Cost.Valid, narrow.Cost.Valid, wide.Cost.Reason, narrow.Cost.Reason)
	}
	nb := narrow.Cost.Bounds
	if nb.W > layout.Narrow.W {
		t.Errorf("narrow interface too wide: %v", nb)
	}
	// The narrow screen is a strictly harder constraint: its best cost is at
	// least the wide screen's best cost for the same difftree... which we
	// can't assert directly across different search runs, so assert the
	// weaker invariant that both searches found finite-cost interfaces.
	if math.IsInf(wide.Cost.Total(), 1) || math.IsInf(narrow.Cost.Total(), 1) {
		t.Error("finite costs expected")
	}
}

func TestRewardMonotoneInCost(t *testing.T) {
	log := workload.PaperFigure1Log()
	model := cost.Default(layout.Wide)
	opt := Options{}.withDefaults()
	init, _ := difftree.Initial(log)
	d := newDomain(newProblem(log, init, model, opt, newEngine(log, init, model, opt)))
	s := state{d: init, h: difftree.Hash(init)}
	r1 := d.Reward(s)
	if r1 <= 0 || r1 > 1 {
		t.Errorf("reward out of range: %f", r1)
	}
	// Cached: same value on repeat call.
	if d.Reward(s) != r1 {
		t.Error("reward cache broken")
	}
}

// TestSDSSSeed1CostWithMatchMemo pins the cost of a cold SDSS search at
// seed 1 (15 iterations, the default rollout depth), whose legality
// re-matches go through the engine's match memo. The memo must serve only
// ExpressibleAll: Express records the choice trail cost.NewEvaluator reads,
// and a memoized step records none, so memoizing Express too drops choices
// from the trail and changes the costs.
func TestSDSSSeed1CostWithMatchMemo(t *testing.T) {
	opt := Options{Screen: layout.Wide, Iterations: 15, Seed: 1}
	res, err := Generate(context.Background(), workload.SDSSLog(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.2f", res.Cost.Total()); got != "44.65" {
		t.Errorf("SDSS seed 1 costs %s, want 44.65", got)
	}
}
