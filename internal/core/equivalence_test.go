package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/workload"
)

// equivalenceStrategies is every strategy the engine ships; the memoized
// evaluation engine must be invisible to all of them.
func equivalenceStrategies() map[string]Strategy {
	return map[string]Strategy{
		"mcts":       StrategyMCTS(),
		"beam":       StrategyBeam(3),
		"greedy":     StrategyGreedy(),
		"random":     StrategyRandom(6),
		"exhaustive": StrategyExhaustive(400),
	}
}

// TestCachedUncachedEquivalence is the acceptance gate for the transposition
// cache: for a fixed seed, every strategy must return the identical best
// cost — and the identical best difftree — with memoization on (private
// cache), with memoization off, and with a pre-warmed shared cache.
func TestCachedUncachedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	for name, strat := range equivalenceStrategies() {
		t.Run(name, func(t *testing.T) {
			base := Options{
				Iterations:   8,
				RolloutDepth: 6,
				Seed:         7,
				Strategy:     strat,
			}

			cached, err := Generate(context.Background(), log, base)
			if err != nil {
				t.Fatal(err)
			}

			uncachedOpt := base
			uncachedOpt.DisableMemo = true
			uncached, err := Generate(context.Background(), log, uncachedOpt)
			if err != nil {
				t.Fatal(err)
			}

			shared := eval.NewCache(0)
			sharedOpt := base
			sharedOpt.Cache = shared
			warm, err := Generate(context.Background(), log, sharedOpt)
			if err != nil {
				t.Fatal(err)
			}
			// Second run against the now-hot cache: everything is a hit.
			hot, err := Generate(context.Background(), log, sharedOpt)
			if err != nil {
				t.Fatal(err)
			}

			// A deliberately tiny cache keeps every lookup on the
			// eviction-heavy path: entries are constantly recycled, so most
			// hits become recomputes — which by construction are
			// bit-identical, making eviction invisible to the search.
			tinyOpt := base
			tinyOpt.Cache = eval.NewCache(96)
			tiny, err := Generate(context.Background(), log, tinyOpt)
			if err != nil {
				t.Fatal(err)
			}
			if ts := tinyOpt.Cache.Stats(); ts.Entries > ts.Capacity {
				t.Errorf("tiny cache occupancy %d exceeds capacity %d", ts.Entries, ts.Capacity)
			}

			want := cached.Cost.Total()
			if math.IsInf(want, 1) {
				t.Fatalf("no valid interface found: %+v", cached.Cost)
			}
			for label, r := range map[string]*Result{
				"uncached": uncached, "shared-cold": warm, "shared-hot": hot, "tiny-evicting": tiny,
			} {
				if got := r.Cost.Total(); got != want {
					t.Errorf("%s best cost %v, want %v", label, got, want)
				}
				if difftree.Hash(r.DiffTree) != difftree.Hash(cached.DiffTree) {
					t.Errorf("%s best difftree diverged:\n got %s\nwant %s",
						label, r.DiffTree, cached.DiffTree)
				}
			}

			if cached.Stats.CacheMisses == 0 {
				t.Error("cached run recorded no cache traffic")
			}
			if uncached.Stats.CacheHits != 0 || uncached.Stats.CacheMisses != 0 {
				t.Errorf("uncached run recorded cache traffic: %+v", uncached.Stats)
			}
			if hot.Stats.CacheHitRate <= warm.Stats.CacheHitRate {
				t.Errorf("hot run hit rate %.3f not above cold %.3f",
					hot.Stats.CacheHitRate, warm.Stats.CacheHitRate)
			}
		})
	}
}

// TestReRootedEquivalence extends the equivalence gate over MCTS tree
// re-rooting (Options.SearchTree): a warm-started, re-rooted regeneration
// with memoization on must be bit-identical — best cost and best difftree —
// to the same regeneration with memoization off, whose engine recomputes
// everything from scratch. A reused tree is mutated by the search that
// consumes it, so each follow-up gets its own tree, produced by
// deterministic (and themselves equivalent) previous runs.
func TestReRootedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 8, RolloutDepth: 6, Seed: 7}

	prevCached, err := Generate(context.Background(), log, base)
	if err != nil {
		t.Fatal(err)
	}
	uncachedOpt := base
	uncachedOpt.DisableMemo = true
	prevUncached, err := Generate(context.Background(), log, uncachedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if difftree.Hash(prevCached.DiffTree) != difftree.Hash(prevUncached.DiffTree) {
		t.Fatal("previous runs diverged; re-rooted comparison is meaningless")
	}

	reCached := base
	reCached.WarmStart = prevCached.DiffTree
	reCached.SearchTree = prevCached.SearchTree
	cached, err := Generate(context.Background(), log, reCached)
	if err != nil {
		t.Fatal(err)
	}
	reUncached := uncachedOpt
	reUncached.WarmStart = prevUncached.DiffTree
	reUncached.SearchTree = prevUncached.SearchTree
	uncached, err := Generate(context.Background(), log, reUncached)
	if err != nil {
		t.Fatal(err)
	}

	if !cached.Stats.ReRooted || !uncached.Stats.ReRooted {
		t.Fatalf("re-rooting did not engage: cached=%v uncached=%v",
			cached.Stats.ReRooted, uncached.Stats.ReRooted)
	}
	if got, want := cached.Cost.Total(), uncached.Cost.Total(); got != want {
		t.Errorf("memoized re-rooted cost %v != full-recompute cost %v", got, want)
	}
	if difftree.Hash(cached.DiffTree) != difftree.Hash(uncached.DiffTree) {
		t.Errorf("re-rooted best difftree diverged:\n got %s\nwant %s",
			cached.DiffTree, uncached.DiffTree)
	}
	// Note: Stats.Evals is not compared — the memoized run counts unique
	// states (the run-local cost memo dedupes the counter), the uncached
	// reference counts every Reward call.
}

// TestEvalsRunLocal pins the Stats.Evals contract: with memoization on,
// Evals counts the unique states one run scored, whatever a shared cache
// already holds. The same search on a fresh shared cache and again on that
// now-warm cache must report equal Evals and the same trajectory of
// (evals, cost) improvements.
func TestEvalsRunLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	for name, strat := range map[string]Strategy{"mcts": StrategyMCTS(), "beam": StrategyBeam(3)} {
		t.Run(name, func(t *testing.T) {
			opt := Options{Iterations: 8, RolloutDepth: 6, Seed: 7, Strategy: strat, Cache: eval.NewCache(0)}
			cold, err := Generate(context.Background(), log, opt)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Generate(context.Background(), log, opt)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats.CacheHits <= cold.Stats.CacheHits {
				t.Fatalf("second run did not hit the shared cache: hits %d then %d",
					cold.Stats.CacheHits, warm.Stats.CacheHits)
			}
			if cold.Stats.Evals == 0 || warm.Stats.Evals != cold.Stats.Evals {
				t.Errorf("Evals cold %d, warm %d: want equal and nonzero", cold.Stats.Evals, warm.Stats.Evals)
			}
			points := func(r *Result) [][2]float64 {
				var out [][2]float64
				for _, tp := range r.Stats.Trajectory {
					out = append(out, [2]float64{float64(tp.Evals), tp.Cost})
				}
				return out
			}
			if c, w := points(cold), points(warm); len(c) == 0 || !reflect.DeepEqual(c, w) {
				t.Errorf("trajectory (evals, cost) cold %v, warm %v: want equal and nonempty", c, w)
			}
		})
	}
}

// generateConcurrently runs the same seeded search from 8 goroutines
// against opt.Cache, the daemon's concurrent-request path, and returns the
// 8 results. Under `go test -race` (CI) this is the concurrency exercise for
// the engine/cache stack on the real search path.
func generateConcurrently(t *testing.T, log []*ast.Node, opt Options) []*Result {
	t.Helper()
	results := make([]*Result, 8)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Generate(context.Background(), log, opt)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// sameResult reports how got differs from the reference want, or "".
func sameResult(got, want *Result) string {
	if got.Cost.Total() != want.Cost.Total() {
		return fmt.Sprintf("cost %v, want %v", got.Cost.Total(), want.Cost.Total())
	}
	if difftree.Hash(got.DiffTree) != difftree.Hash(want.DiffTree) {
		return "best difftree differs"
	}
	return ""
}

// TestConcurrentGenerateSharedCache: 8 concurrent searches hammer one shared
// transposition cache; every result must equal the memoization-off run.
func TestConcurrentGenerateSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 6, RolloutDepth: 6, Seed: 3}

	off := base
	off.DisableMemo = true
	ref, err := Generate(context.Background(), log, off)
	if err != nil {
		t.Fatal(err)
	}

	shared := base
	shared.Cache = eval.NewCache(0)
	for i, res := range generateConcurrently(t, log, shared) {
		if diff := sameResult(res, ref); diff != "" {
			t.Errorf("search %d on the shared cache: %s", i, diff)
		}
	}
	if shared.Cache.Stats().Hits == 0 {
		t.Error("8 searches sharing one cache recorded no hits")
	}
}

// TestConcurrentGenerateTinyCache: 8 concurrent searches share one
// deliberately tiny cache, so insert/evict races on the CLOCK rings happen
// on every search path; under `go test -race` (CI) this is the eviction
// concurrency exercise. Every result must equal the memoization-off run —
// eviction may cost recomputes, never correctness.
func TestConcurrentGenerateTinyCache(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 6, RolloutDepth: 6, Seed: 3}

	off := base
	off.DisableMemo = true
	ref, err := Generate(context.Background(), log, off)
	if err != nil {
		t.Fatal(err)
	}

	tiny := base
	tiny.Cache = eval.NewCache(96)
	for i, res := range generateConcurrently(t, log, tiny) {
		if diff := sameResult(res, ref); diff != "" {
			t.Errorf("search %d on the tiny evicting cache: %s", i, diff)
		}
	}
	st := tiny.Cache.Stats()
	if st.Evictions == 0 {
		t.Error("tiny cache under 8 searches recorded no evictions")
	}
	if st.Entries > st.Capacity {
		t.Errorf("occupancy %d exceeds capacity %d", st.Entries, st.Capacity)
	}
}
