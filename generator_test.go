package mctsui

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestGenerateNilContext(t *testing.T) {
	iface, err := fastGen().Generate(nil, paperLog) //nolint:staticcheck // nil ctx is documented as Background
	if err != nil {
		t.Fatal(err)
	}
	if !iface.Valid() {
		t.Error("nil ctx must behave like context.Background()")
	}
}

func TestGenerateCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	iface, err := New(
		WithIterations(1<<30),
		WithSeed(1),
	).Generate(ctx, workload.SDSSLogSQL())
	if err != nil {
		t.Fatalf("cancellation must yield best-so-far, not an error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancelled generate took %v", elapsed)
	}
	st := iface.Stats()
	if !st.Interrupted {
		t.Error("Stats().Interrupted must be set after cancellation")
	}
	if st.Iterations != 0 {
		t.Errorf("pre-cancelled context still ran %d iterations", st.Iterations)
	}
	// Even with zero search the pipeline extracts the initial state's best
	// interface, which must express the whole log.
	if math.IsInf(iface.Cost(), 1) {
		t.Error("best-so-far interface has no finite cost")
	}
	for _, q := range workload.SDSSLogSQL() {
		ok, err := iface.CanExpress(q)
		if err != nil || !ok {
			t.Fatalf("best-so-far interface cannot express log query %q", q)
		}
	}
}

func TestGenerateDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	iface, err := New(
		WithIterations(1<<30), // far beyond what 150ms allows
		WithSeed(1),
	).Generate(ctx, workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	// Generous bound: the search must stop at the deadline; only final
	// extraction work may follow.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("deadline ignored: generate took %v", elapsed)
	}
	if !iface.Stats().Interrupted {
		t.Error("deadline must set Interrupted")
	}
	if math.IsInf(iface.Cost(), 1) {
		t.Error("no finite best-so-far interface at deadline")
	}
}

func TestProgressSnapshots(t *testing.T) {
	var snaps []Progress
	iface, err := fastGen(
		WithIterations(12),
		WithProgress(func(p Progress) { snaps = append(snaps, p) }),
	).Generate(context.Background(), workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i, p := range snaps {
		if p.Strategy != "mcts" {
			t.Fatalf("snapshot %d: strategy %q", i, p.Strategy)
		}
		if i == 0 {
			continue
		}
		if p.BestCost > snaps[i-1].BestCost {
			t.Errorf("best cost increased between snapshots: %.3f -> %.3f",
				snaps[i-1].BestCost, p.BestCost)
		}
		if p.Iterations < snaps[i-1].Iterations || p.Evals < snaps[i-1].Evals {
			t.Error("iteration/eval counters must be monotone non-decreasing")
		}
	}
	last := snaps[len(snaps)-1]
	if last.Iterations != 12 {
		t.Errorf("final snapshot at iteration %d, want 12", last.Iterations)
	}
	// The delivered interface can only improve on the search-time estimate.
	if iface.Cost() > last.BestCost+1e-9 {
		t.Errorf("final cost %.3f worse than last snapshot's best %.3f", iface.Cost(), last.BestCost)
	}
}

func TestStatsTrajectory(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	traj := iface.Stats().Trajectory
	if len(traj) == 0 {
		t.Fatal("empty best-cost trajectory")
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].Cost >= traj[i-1].Cost {
			t.Error("trajectory costs must be strictly decreasing")
		}
		if traj[i].Evals < traj[i-1].Evals {
			t.Error("trajectory evals must be non-decreasing")
		}
	}
	final := traj[len(traj)-1].Cost
	if math.Abs(final-iface.Cost()) > 1e-9 {
		t.Errorf("trajectory ends at %.4f but interface cost is %.4f", final, iface.Cost())
	}
}

func TestWithStrategySelection(t *testing.T) {
	queries := workload.SDSSLogSQL()
	for _, tc := range []struct {
		name string
		s    Strategy
	}{
		{"mcts", StrategyMCTS()},
		{"beam", StrategyBeam(3)},
		{"greedy", StrategyGreedy()},
		{"random", StrategyRandom(4)},
	} {
		iface, err := fastGen(WithStrategy(tc.s)).Generate(context.Background(), queries)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := iface.Stats().Strategy; got != tc.name {
			t.Errorf("%s: Stats().Strategy = %q", tc.name, got)
		}
		if !iface.Valid() {
			t.Errorf("%s: invalid interface", tc.name)
		}
		for _, q := range queries {
			if ok, _ := iface.CanExpress(q); !ok {
				t.Fatalf("%s: interface cannot express log query %q", tc.name, q)
			}
		}
	}
}

func TestExhaustiveStrategy(t *testing.T) {
	tiny := paperLog[:2]
	exact, err := New(
		WithStrategy(StrategyExhaustive(3000)),
		WithRewardSamples(1),
		WithSeed(1),
	).Generate(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	st := exact.Stats()
	if st.Strategy != "exhaustive" {
		t.Errorf("Stats().Strategy = %q", st.Strategy)
	}
	// Even this 2-query space exceeds the cap (expansion rules keep
	// producing fresh trees up to the size bound), so the sweep must stop
	// exactly at maxStates and report incompleteness honestly.
	if st.Expanded != 3000 {
		t.Errorf("exhaustive visited %d states, want exactly the 3000 cap", st.Expanded)
	}
	if st.SpaceExhausted {
		t.Error("capped sweep must not claim the space was exhausted")
	}
	if !exact.Valid() {
		t.Error("invalid interface")
	}
	// A 3000-state BFS around the initial state can only improve on it.
	if exact.Cost() > exact.InitialCost()+1e-9 {
		t.Errorf("exhaustive cost %.3f worse than the initial state %.3f",
			exact.Cost(), exact.InitialCost())
	}
}

func TestTimeBudgetIsNotInterruption(t *testing.T) {
	// Exhausting one's own WithTimeBudget is a normal completion for every
	// strategy (MCTS checks it natively; the others via a derived
	// deadline) — only the caller's context ending counts as interrupted.
	var snaps []Progress
	iface, err := New(
		WithStrategy(StrategyBeam(4)),
		WithTimeBudget(200*time.Millisecond),
		WithSeed(1),
		WithProgress(func(p Progress) { snaps = append(snaps, p) }),
	).Generate(context.Background(), workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	if iface.Stats().Interrupted {
		t.Error("finishing the configured TimeBudget must not report Interrupted")
	}
	for _, p := range snaps {
		if p.Iterations != p.Evals {
			t.Fatalf("non-MCTS snapshot: Iterations=%d != Evals=%d", p.Iterations, p.Evals)
		}
	}
	// A genuinely cancelled caller context, by contrast, must report it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iface2, err := New(
		WithStrategy(StrategyBeam(4)),
		WithIterations(1000),
		WithSeed(1),
	).Generate(ctx, workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	if !iface2.Stats().Interrupted {
		t.Error("cancelled caller context must report Interrupted for non-MCTS strategies")
	}
}

func TestGenerateFromASTsEmptyLog(t *testing.T) {
	_, err := New().GenerateFromASTs(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "mctsui: empty query log") {
		t.Errorf("want the documented mctsui error, got %v", err)
	}
}

func TestStrategyByName(t *testing.T) {
	for spec, want := range map[string]string{
		"mcts":             "mcts",
		"beam":             "beam",
		"beam:12":          "beam",
		"greedy":           "greedy",
		"random:9":         "random",
		"exhaustive:10000": "exhaustive",
	} {
		s, err := StrategyByName(spec)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", spec, err)
		}
		if s.Name() != want {
			t.Errorf("StrategyByName(%q).Name() = %q, want %q", spec, s.Name(), want)
		}
	}
	for _, bad := range []string{"", "dfs", "beam:zero", "beam:-3", "mcts:5"} {
		if _, err := StrategyByName(bad); err == nil {
			t.Errorf("StrategyByName(%q) should fail", bad)
		}
	}
}

// TestWithCacheSharesAcrossCalls: a caller-provided cache carries memoized
// state evaluations across Generate calls — the second call hits what the
// first computed, with an identical result; WithoutCache records nothing.
// TestWithTreeWorkers covers the public tree-parallel option: one worker is
// bit-identical to the default sequential search, several workers still
// return a valid interface (never worse than the unsearched initial state)
// and report their count in Stats.
func TestWithTreeWorkers(t *testing.T) {
	seq, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	one, err := fastGen(WithTreeWorkers(1)).Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if one.Cost() != seq.Cost() || one.DiffTree() != seq.DiffTree() {
		t.Errorf("WithTreeWorkers(1) diverged from the sequential default: cost %v vs %v",
			one.Cost(), seq.Cost())
	}
	if one.Stats().TreeWorkers != 1 {
		t.Errorf("TreeWorkers stat = %d, want 1", one.Stats().TreeWorkers)
	}

	par, err := fastGen(WithTreeWorkers(4)).Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Valid() {
		t.Error("tree-parallel interface invalid")
	}
	if par.Cost() > par.InitialCost() {
		t.Errorf("tree-parallel search worse than the initial state: %v vs %v", par.Cost(), par.InitialCost())
	}
	if par.Stats().TreeWorkers != 4 {
		t.Errorf("TreeWorkers stat = %d, want 4", par.Stats().TreeWorkers)
	}
}

func TestWithCacheSharesAcrossCalls(t *testing.T) {
	cache := NewCache(0)
	gen := fastGen(WithCache(cache))

	first, err := gen.Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := cache.Stats()
	if afterFirst.Entries == 0 {
		t.Fatal("shared cache stayed empty")
	}

	second, err := gen.Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost() != second.Cost() {
		t.Errorf("shared cache changed the result: %v vs %v", first.Cost(), second.Cost())
	}
	afterSecond := cache.Stats()
	if afterSecond.Entries != afterFirst.Entries {
		t.Errorf("identical rerun grew the cache: %d -> %d entries", afterFirst.Entries, afterSecond.Entries)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Error("second run recorded no additional cache hits")
	}
	if second.Stats().CacheHitRate <= first.Stats().CacheHitRate {
		t.Errorf("cumulative hit rate did not rise: %.3f -> %.3f",
			first.Stats().CacheHitRate, second.Stats().CacheHitRate)
	}

	plain, err := fastGen(WithoutCache()).Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost() != first.Cost() {
		t.Errorf("WithoutCache changed the result: %v vs %v", plain.Cost(), first.Cost())
	}
	if s := plain.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("WithoutCache recorded cache traffic: %+v", s)
	}
}

func TestWithWarmStart(t *testing.T) {
	prefix := paperLog[:len(paperLog)-1]
	prev, err := fastGen().Generate(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache(0)
	warm, err := fastGen(WithCache(cache), WithWarmStart(prev)).Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range paperLog {
		ok, err := warm.CanExpress(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("incremental interface cannot express %q", q)
		}
	}
	// The same warm-started regeneration is deterministic.
	again, err := fastGen(WithCache(cache), WithWarmStart(prev)).Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost() != again.Cost() {
		t.Errorf("warm-started regeneration not deterministic: %v vs %v", warm.Cost(), again.Cost())
	}
	if warm.Stats().WarmStarted != again.Stats().WarmStarted {
		t.Error("WarmStarted flapped across identical runs")
	}
	// A nil warm start is ignored and a self warm start is always legal.
	self, err := fastGen(WithWarmStart(nil), WithWarmStart(warm)).Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if !self.Stats().WarmStarted {
		t.Error("self warm start was rejected")
	}
	if self.Cost() > warm.Cost() {
		t.Errorf("self warm start regressed: %v > %v", self.Cost(), warm.Cost())
	}
}
