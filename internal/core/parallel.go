package core

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/ast"
	"repro/internal/eval"
)

// GenerateParallel runs `workers` independent searches with distinct seeds
// and returns the best interface found — root parallelization, the simplest
// of the parallel MCTS schemes and the paper's suggested "parallelization"
// optimization for interactive run-times. workers <= 0 uses GOMAXPROCS.
// Results are deterministic for a fixed (seed, workers) pair: the winner is
// the lowest cost with the lowest worker index breaking ties.
//
// Cancelling ctx stops every worker promptly; the best interface found
// across workers so far is still assembled and returned. Progress callbacks
// are serialized across workers and tagged with the worker index.
func GenerateParallel(ctx context.Context, log []*ast.Node, opt Options, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return Generate(ctx, log, opt)
	}
	opt = opt.withDefaults()
	// One transposition cache serves every worker: state costs are pure
	// functions of (state, evalSeed) — withDefaults pinned evalSeed to the
	// base seed above, and only the policy seed is perturbed per worker —
	// so a state scored by one worker is a guaranteed-identical cache hit
	// for all the others.
	if opt.Cache == nil && !opt.DisableMemo {
		opt.Cache = eval.NewCache(0)
	}
	if opt.Progress != nil {
		var mu sync.Mutex
		user := opt.Progress
		opt.Progress = func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			user(p)
		}
	}

	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := opt
			o.Seed = opt.Seed + int64(w)*0x9e3779b9
			results[w], errs[w] = generate(ctx, log, o, w)
		}(w)
	}
	wg.Wait()

	var best *Result
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		r := results[w]
		if best == nil || r.Cost.Total() < best.Cost.Total() {
			best = r
		}
	}
	// Aggregate search statistics across workers; the winner keeps its own
	// best-cost trajectory.
	agg := best.Stats
	agg.Iterations, agg.Expanded, agg.Rollouts, agg.Evals = 0, 0, 0, 0
	agg.Workers = workers
	for _, r := range results {
		agg.Iterations += r.Stats.Iterations
		agg.Expanded += r.Stats.Expanded
		agg.Rollouts += r.Stats.Rollouts
		agg.Evals += r.Stats.Evals
		agg.Interrupted = agg.Interrupted || r.Stats.Interrupted
	}
	if opt.Cache != nil {
		// Final snapshot of the shared cache (per-worker snapshots raced
		// with still-running workers).
		cs := opt.Cache.Stats()
		agg.CacheHits, agg.CacheMisses, agg.CacheEntries = cs.Hits, cs.Misses, cs.Entries
		agg.CacheHitRate = cs.HitRate()
	}
	best.Stats = agg
	return best, nil
}
