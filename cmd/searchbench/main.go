// Command searchbench measures the memoized evaluation engine against the
// memoization-off baseline and emits a machine-readable BENCH_search.json
// for the performance trajectory. Since the multi-table expansion the report
// carries one section per workload (default: sdss and sdss-join).
//
// Three modes are timed per workload, all with the same seed and budget:
//
//   - uncached:    memoization disabled (every state re-scored per visit)
//   - cached_cold: a fresh shared cache, first search
//   - cached_warm: the same shared cache, subsequent searches (steady
//     state — the serving scenario WithCache exists for)
//
// State evaluation is deterministic per state, so all three modes must
// return the identical best cost; searchbench fails if they do not. The
// -min-speedup gate (default 3) applies to the warm/uncached ratio of every
// workload and makes `make bench-json` fail loudly if the cache stops
// paying for itself. The -min-cold-speedup gate (default 1) protects a
// first search from its own cache. The -min-snapshot-speedup gate (default
// 3) applies to searches on a cache restored from a snapshot against cold
// ones, and every restored search must miss the cache zero times: the
// snapshot carries every aspect a search of the same workload reads. Single
// runs spread on a shared machine by about as much as
// cached-cold and uncached searches differ, so each of the three ratios is
// the median per-pair ratio of ten interleaved pairs (coldPairs, warmPairs,
// restartPairs).
//
// A fourth mode measures tree-parallel MCTS (-tree-workers goroutines on
// one shared tree, virtual-loss diversified) against the sequential
// cold-cache reference; it runs on the first listed workload only (it is
// the wall-clock-dominant section). The -min-tree-speedup gate (default 2)
// and its equal-or-better best-cost companion are enforced only when the
// machine has at least -tree-workers CPUs — a 1-CPU container records its
// numbers without failing the build.
//
// -compare old.json prints per-metric deltas against a previous report
// (either format generation) before any gate is enforced, so a CI failure
// arrives with a readable diff of what moved:
//
//	go run ./cmd/searchbench -out BENCH_search.json -compare prev/BENCH_search.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/workload"
)

type modeResult struct {
	ElapsedMS    float64 `json:"elapsed_ms"`
	ItersPerSec  float64 `json:"iters_per_sec"`
	Iterations   int     `json:"iterations"`
	Evals        int     `json:"evals"`
	BestCost     float64 `json:"best_cost"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// AllocsPerIter/BytesPerIter are heap allocations (count and bytes) per
	// search iteration, from the monotonic runtime counters around the run —
	// exact, GC-independent. The per-mode numbers are the allocation half of
	// the cold-cache story: cache-mode overhead shows up here before it
	// shows up in wall clock.
	AllocsPerIter float64 `json:"allocs_per_iter"`
	BytesPerIter  float64 `json:"bytes_per_iter"`
}

// treeSection reports tree-parallel MCTS against the sequential reference:
// same workload, same iteration budget, both cold (fresh cache per
// repetition — see the comment at the measurement site), N goroutines on
// one tree. Speedup is parallel/sequential iters-per-sec; cost_no_worse is
// the quality half of the gate — best cost across the repetitions, each an
// independent sample of the non-deterministic parallel search, no worse
// than the (deterministic) sequential best. The >= 2x gate is enforced only
// where the hardware can express it (gate_enforced: cpus >= workers); a
// 1-CPU container records its numbers without failing.
type treeSection struct {
	Workers      int        `json:"workers"`
	Sequential   modeResult `json:"sequential"`
	Parallel     modeResult `json:"parallel"`
	Speedup      float64    `json:"speedup"`
	CostNoWorse  bool       `json:"cost_no_worse"`
	CPUs         int        `json:"cpus"`
	GateEnforced bool       `json:"gate_enforced"`
}

// snapshotSection reports the restart-from-snapshot story: the warm cache
// left by the cached runs is exported to a byte buffer, and each "restored"
// repetition imports it into a fresh cache before searching — a faithful
// model of a daemon restart (cost, legality and move-set entries warm,
// codec round trip included). Speedup is restored/cold iters-per-sec and is
// gated unconditionally: the measurement is single-threaded, so it holds on
// a 1-CPU container as well as a big box. EqualBestCost re-checks the
// portability contract end to end — a snapshot can change only speed — and
// misses, which every restored run must hold at zero, checks that the
// snapshot carried every aspect the search reads.
type snapshotSection struct {
	Entries       int64      `json:"entries"`
	Bytes         int        `json:"bytes"`
	Restored      modeResult `json:"restored"`
	Speedup       float64    `json:"speedup"` // median per-pair ratio, restored vs cached_cold
	Pairs         int        `json:"pairs"`   // interleaved restored/cold pairs timed
	Wins          int        `json:"wins"`    // pairs in which restored was faster
	EqualBestCost bool       `json:"equal_best_cost"`

	misses int64 // cache misses summed over every restored run
}

// workloadReport is one workload's section of the file.
type workloadReport struct {
	Workload      string           `json:"workload"`
	Strategy      string           `json:"strategy"`
	Iterations    int              `json:"iterations"`
	RolloutDepth  int              `json:"rollout_depth"`
	Seed          int64            `json:"seed"`
	Uncached      modeResult       `json:"uncached"`
	CachedCold    modeResult       `json:"cached_cold"`
	CachedWarm    modeResult       `json:"cached_warm"`
	SpeedupCold   float64          `json:"speedup_cold"` // median per-pair ratio
	ColdPairs     int              `json:"cold_pairs"`   // interleaved cold/uncached pairs timed
	ColdWins      int              `json:"cold_wins"`    // pairs in which cold was faster
	SpeedupWarm   float64          `json:"speedup_warm"` // median per-pair ratio
	WarmPairs     int              `json:"warm_pairs"`   // interleaved warm/uncached pairs timed
	WarmWins      int              `json:"warm_wins"`    // pairs in which warm was faster
	EqualBestCost bool             `json:"equal_best_cost"`
	TreeParallel  *treeSection     `json:"tree_parallel,omitempty"`
	Snapshot      *snapshotSection `json:"snapshot,omitempty"`
}

// fileReport is the on-disk shape: one section per workload.
type fileReport struct {
	Workloads   map[string]workloadReport `json:"workloads"`
	GeneratedAt string                    `json:"generated_at"`
}

// coldPairs, warmPairs and restartPairs are the numbers of interleaved
// pairs timed per workload for speedup_cold (cached-cold/uncached),
// speedup_warm (warm/uncached) and the snapshot speedup (restored/cold).
// A cold cache moves a first search's speed by no more than single
// fastest-of-3 runs spread on a shared 2-vCPU machine, so one comparison
// passed or failed the gate on noise; and a fastest-of-3 warm or restored
// run over the fastest of ten baseline runs read below 3x on host noise
// alone. Each gate reads the median of ten pairs instead.
const (
	coldPairs    = 10
	warmPairs    = 10
	restartPairs = 10
)

func logFor(name string) ([]*ast.Node, error) {
	switch name {
	case "sdss":
		return workload.SDSSLog(), nil
	case "sdss-subset":
		return workload.SDSSSubset(6, 8), nil
	case "sdss-join":
		return workload.SDSSJoinLog(), nil
	case "sdss-join-block":
		return workload.SDSSJoinSubset(1, 6), nil
	case "figure1":
		return workload.PaperFigure1Log(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	out := flag.String("out", "BENCH_search.json", "output file ('-' for stdout)")
	workloads := flag.String("workload", "sdss,sdss-join", "comma-separated query logs: sdss | sdss-subset | sdss-join | sdss-join-block | figure1")
	strategySpec := flag.String("strategy", "mcts", "search strategy (see -h of cmd/mctsui)")
	iterations := flag.Int("iterations", 15, "search iteration budget per run")
	rollout := flag.Int("rollout", 8, "rollout depth")
	seed := flag.Int64("seed", 1, "deterministic seed")
	minSpeedup := flag.Float64("min-speedup", 3, "fail unless warm-cache/uncached iters-per-sec reaches this on every workload (0 disables)")
	minColdSpeedup := flag.Float64("min-cold-speedup", 1.0, "fail unless cold-cache/uncached iters-per-sec reaches this on every workload (0 disables) — the cache must never slow a first search down")
	maxAllocsPerIter := flag.Float64("max-allocs-per-iter", 0, "fail if any warm-cache run allocates more than this per iteration (0 disables)")
	treeWorkers := flag.Int("tree-workers", 4, "tree-parallel worker count for the first workload's tree_parallel section (0 disables the section)")
	minTreeSpeedup := flag.Float64("min-tree-speedup", 2, "fail unless tree-parallel/sequential iters-per-sec reaches this — enforced only when NumCPU >= tree-workers (0 disables)")
	minSnapshotSpeedup := flag.Float64("min-snapshot-speedup", 3, "fail unless restart-from-snapshot/cold iters-per-sec reaches this on every workload (0 disables)")
	comparePath := flag.String("compare", "", "previous BENCH_search.json to diff against (per-metric deltas printed before gates)")
	flag.Parse()

	strategy, err := core.StrategyByName(*strategySpec)
	if err != nil {
		fatalf("%v", err)
	}

	names := strings.Split(*workloads, ",")
	file := fileReport{Workloads: make(map[string]workloadReport, len(names))}
	var order []string
	for i, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		log, err := logFor(name)
		if err != nil {
			fatalf("%v", err)
		}
		rep := benchWorkload(name, log, strategy, *strategySpec, *iterations, *rollout, *seed,
			i == 0, *treeWorkers, *minTreeSpeedup)
		file.Workloads[name] = rep
		order = append(order, name)
	}
	file.GeneratedAt = time.Now().UTC().Format(time.RFC3339)

	if err := benchutil.WriteJSON(*out, file); err != nil {
		fatalf("%v", err)
	}

	for _, name := range order {
		rep := file.Workloads[name]
		fmt.Printf("%s/%s: %.1f iters/sec warm-cached vs %.1f uncached (%.1fx warm, %.1fx cold, hit rate %.1f%%), best cost %.2f\n",
			rep.Workload, rep.Strategy, rep.CachedWarm.ItersPerSec, rep.Uncached.ItersPerSec,
			rep.SpeedupWarm, rep.SpeedupCold, rep.CachedWarm.CacheHitRate*100, rep.CachedWarm.BestCost)
		fmt.Printf("%s cold speedup: median %.2fx over %d interleaved pairs, cold faster in %d/%d\n",
			rep.Workload, rep.SpeedupCold, rep.ColdPairs, rep.ColdWins, rep.ColdPairs)
		fmt.Printf("%s warm speedup: median %.2fx over %d interleaved pairs, warm faster in %d/%d\n",
			rep.Workload, rep.SpeedupWarm, rep.WarmPairs, rep.WarmWins, rep.WarmPairs)
		fmt.Printf("%s allocs/iter: %.0f warm / %.0f cold / %.0f uncached (%.0f KiB/iter warm)\n",
			rep.Workload, rep.CachedWarm.AllocsPerIter, rep.CachedCold.AllocsPerIter,
			rep.Uncached.AllocsPerIter, rep.CachedWarm.BytesPerIter/1024)
		if snap := rep.Snapshot; snap != nil {
			fmt.Printf("%s restart-from-snapshot: %.1f iters/sec vs %.1f cold (median %.2fx over %d interleaved pairs, restored faster in %d/%d), %d entries in %d bytes, hit rate %.1f%%\n",
				rep.Workload, snap.Restored.ItersPerSec, rep.CachedCold.ItersPerSec, snap.Speedup, snap.Pairs, snap.Wins, snap.Pairs,
				snap.Entries, snap.Bytes, snap.Restored.CacheHitRate*100)
		}
		if tree := rep.TreeParallel; tree != nil {
			fmt.Printf("%s tree-parallel x%d: %.1f iters/sec vs %.1f sequential (%.2fx, cpus=%d, gate %s), best cost %.2f vs %.2f\n",
				rep.Workload, tree.Workers, tree.Parallel.ItersPerSec, tree.Sequential.ItersPerSec, tree.Speedup,
				tree.CPUs, map[bool]string{true: "enforced", false: "skipped"}[tree.GateEnforced],
				tree.Parallel.BestCost, tree.Sequential.BestCost)
		}
	}

	// The readable diff comes before any gate, so a gate failure arrives
	// with the per-metric context of what regressed.
	if *comparePath != "" {
		printComparison(*comparePath, file)
	}

	for _, name := range order {
		rep := file.Workloads[name]
		if !rep.EqualBestCost {
			fatalf("%s: best costs diverged (uncached %v, cold %v, warm %v) — the cache changed a result",
				name, rep.Uncached.BestCost, rep.CachedCold.BestCost, rep.CachedWarm.BestCost)
		}
		if *minSpeedup > 0 && rep.SpeedupWarm < *minSpeedup {
			fatalf("%s: median warm speedup %.2fx over %d pairs (warm faster in %d) below the %.1fx gate",
				name, rep.SpeedupWarm, rep.WarmPairs, rep.WarmWins, *minSpeedup)
		}
		if *minColdSpeedup > 0 && rep.SpeedupCold < *minColdSpeedup {
			fatalf("%s: median cold speedup %.2fx over %d pairs (cold faster in %d) below the %.1fx gate — the cache slows a first search down",
				name, rep.SpeedupCold, rep.ColdPairs, rep.ColdWins, *minColdSpeedup)
		}
		if *maxAllocsPerIter > 0 && rep.CachedWarm.AllocsPerIter > *maxAllocsPerIter {
			fatalf("%s: %.0f allocs per iteration warm-cached, above the %.0f gate",
				name, rep.CachedWarm.AllocsPerIter, *maxAllocsPerIter)
		}
		if snap := rep.Snapshot; snap != nil {
			if !snap.EqualBestCost {
				fatalf("%s: restart-from-snapshot best cost %v != cold %v — a snapshot changed a result",
					name, snap.Restored.BestCost, rep.CachedCold.BestCost)
			}
			if snap.misses != 0 {
				fatalf("%s: searches on a restored cache missed it %d times over %d runs — the snapshot dropped an aspect",
					name, snap.misses, snap.Pairs)
			}
			if *minSnapshotSpeedup > 0 && snap.Speedup < *minSnapshotSpeedup {
				fatalf("%s: median restart-from-snapshot speedup %.2fx over %d pairs (restored faster in %d) below the %.1fx gate",
					name, snap.Speedup, snap.Pairs, snap.Wins, *minSnapshotSpeedup)
			}
		}
		if tree := rep.TreeParallel; tree != nil && tree.GateEnforced {
			if !tree.CostNoWorse {
				fatalf("%s: tree-parallel best cost %v worse than sequential %v", name, tree.Parallel.BestCost, tree.Sequential.BestCost)
			}
			if tree.Speedup < *minTreeSpeedup {
				fatalf("%s: tree-parallel speedup %.2fx at %d workers below the %.1fx gate",
					name, tree.Speedup, tree.Workers, *minTreeSpeedup)
			}
		}
	}
}

// benchWorkload times the three cache modes (and, for the first workload,
// the tree-parallel section) on one query log.
func benchWorkload(name string, log []*ast.Node, strategy core.Strategy, strategySpec string,
	iterations, rollout int, seed int64,
	withTree bool, treeWorkers int, minTreeSpeedup float64) workloadReport {

	base := core.Options{
		Iterations:   iterations,
		RolloutDepth: rollout,
		Seed:         seed,
		Strategy:     strategy,
	}

	once := func(opt core.Options) modeResult {
		// Shared-cache counters are cumulative for the cache's lifetime;
		// report this run's delta, not the running total.
		var before eval.Stats
		if opt.Cache != nil {
			before = opt.Cache.Stats()
		}
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		start := time.Now()
		res, err := core.Generate(context.Background(), log, opt)
		if err != nil {
			fatalf("generate: %v", err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&mem1)
		m := modeResult{
			ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
			ItersPerSec: float64(res.Stats.Iterations) / elapsed.Seconds(),
			Iterations:  res.Stats.Iterations,
			Evals:       res.Stats.Evals,
			BestCost:    res.Cost.Total(),
		}
		if res.Stats.Iterations > 0 {
			m.AllocsPerIter = float64(mem1.Mallocs-mem0.Mallocs) / float64(res.Stats.Iterations)
			m.BytesPerIter = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(res.Stats.Iterations)
		}
		if opt.Cache != nil {
			after := opt.Cache.Stats()
			m.CacheHits = after.Hits - before.Hits
			m.CacheMisses = after.Misses - before.Misses
			if total := m.CacheHits + m.CacheMisses; total > 0 {
				m.CacheHitRate = float64(m.CacheHits) / float64(total)
			}
		}
		return m
	}
	// Every gated ratio is the median per-pair ratio of interleaved pairs,
	// the order alternating, so drift in machine load hits both modes
	// alike; the mode sections keep each mode's fastest run.
	//
	// Cached-cold runs get a fresh cache each, so every sample pays the full
	// first-search miss/insert path. Warm then reuses the cache the last
	// cold run filled.
	uncachedOpt := base
	uncachedOpt.DisableMemo = true
	uncachedRun := func() modeResult { return once(uncachedOpt) }
	coldRun := func() modeResult {
		opt := base
		opt.Cache = eval.NewCache(0)
		return once(opt)
	}
	sharedOpt := base
	cold, uncached, speedupCold, coldWins := pairs(coldPairs, func() modeResult {
		sharedOpt.Cache = eval.NewCache(0)
		return once(sharedOpt)
	}, uncachedRun)
	warm, uncachedW, speedupWarm, warmWins := pairs(warmPairs, func() modeResult { return once(sharedOpt) }, uncachedRun)
	uncached = faster(uncached, uncachedW)

	// Restart-from-snapshot: export the warm cache through the codec, then
	// time searches that import it into a fresh cache first — the cost,
	// legality and move-set entries arrive warm, exactly what a restarted
	// daemon pays — against cold searches.
	var snapBuf bytes.Buffer
	snapEntries, err := sharedOpt.Cache.Snapshot(&snapBuf)
	if err != nil {
		fatalf("cache snapshot: %v", err)
	}
	snap := &snapshotSection{Entries: snapEntries, Bytes: snapBuf.Len(), Pairs: restartPairs}
	restored, coldR, speedupRestart, restartWins := pairs(restartPairs, func() modeResult {
		opt := base
		opt.Cache = eval.NewCache(0)
		if _, err := opt.Cache.LoadSnapshot(bytes.NewReader(snapBuf.Bytes())); err != nil {
			fatalf("cache snapshot import: %v", err)
		}
		m := once(opt)
		snap.misses += m.CacheMisses
		return m
	}, coldRun)
	cold = faster(cold, coldR)
	snap.Restored = restored
	snap.Speedup = speedupRestart
	snap.Wins = restartWins
	snap.EqualBestCost = restored.BestCost == cold.BestCost

	rep := workloadReport{
		Workload:      name,
		Strategy:      strategySpec,
		Iterations:    iterations,
		RolloutDepth:  rollout,
		Seed:          seed,
		Uncached:      uncached,
		CachedCold:    cold,
		CachedWarm:    warm,
		SpeedupCold:   speedupCold,
		ColdPairs:     coldPairs,
		ColdWins:      coldWins,
		SpeedupWarm:   speedupWarm,
		WarmPairs:     warmPairs,
		WarmWins:      warmWins,
		EqualBestCost: cold.BestCost == uncached.BestCost && warm.BestCost == uncached.BestCost,
		Snapshot:      snap,
	}

	// Tree-parallel section: N goroutines on one tree vs the sequential
	// search, both *cold* (a fresh cache per repetition). Cold-vs-cold is
	// the fair comparison: a warm sequential rerun is 100% cache hits on its
	// own deterministic trajectory, while virtual loss steers tree-parallel
	// workers into fresh states on purpose — so a warm baseline would
	// measure cache residency, not parallelism. What the workers actually
	// parallelize is the per-state evaluation work of one search, which is
	// exactly what a first-contact request (the paper's 1-minute budget
	// scenario) pays.
	// Each repetition is an independent sample of the (for TreeWorkers > 1,
	// non-deterministic) search: the fastest elapsed time measures speed and
	// the best cost across repetitions measures quality, mirroring how a
	// caller under a wall-clock budget would actually use the knob.
	if withTree && treeWorkers > 1 {
		coldFastest := func(opt core.Options, n int) modeResult {
			best := modeResult{ElapsedMS: -1}
			minCost := math.Inf(1)
			for r := 0; r < n; r++ {
				opt.Cache = eval.NewCache(0)
				m := once(opt)
				minCost = math.Min(minCost, m.BestCost)
				if best.ElapsedMS < 0 || m.ElapsedMS < best.ElapsedMS {
					best = m
				}
			}
			best.BestCost = minCost
			return best
		}
		treeOpt := base
		treeOpt.TreeWorkers = treeWorkers
		// The parallel search is non-deterministic, so this section is gated
		// on samples, not a single run: 5 repetitions per mode, so one
		// unlucky interleaving (or one noisy-CI hiccup) cannot flip the
		// speedup or best-cost verdict.
		const treeRepeats = 5
		cpus, qualified := benchutil.GateEnforced(treeWorkers)
		tree := &treeSection{
			Workers:      treeWorkers,
			Sequential:   coldFastest(base, treeRepeats),
			Parallel:     coldFastest(treeOpt, treeRepeats),
			CPUs:         cpus,
			GateEnforced: minTreeSpeedup > 0 && qualified,
		}
		tree.Speedup = tree.Parallel.ItersPerSec / tree.Sequential.ItersPerSec
		tree.CostNoWorse = tree.Parallel.BestCost <= tree.Sequential.BestCost+1e-9
		rep.TreeParallel = tree
	}
	return rep
}

// pairs times n interleaved pairs of runs of a and b, b first in every
// other pair. It returns each side's fastest run, the median per-pair ratio
// of a's iters/sec to b's, and the number of pairs in which a was faster.
func pairs(n int, a, b func() modeResult) (fastA, fastB modeResult, ratio float64, wins int) {
	fastA, fastB = modeResult{ElapsedMS: -1}, modeResult{ElapsedMS: -1}
	ratios := make([]float64, 0, n)
	for r := 0; r < n; r++ {
		var x, y modeResult
		if r%2 == 0 {
			x, y = a(), b()
		} else {
			y, x = b(), a()
		}
		fastA, fastB = faster(fastA, x), faster(fastB, y)
		ratios = append(ratios, x.ItersPerSec/y.ItersPerSec)
		if x.ElapsedMS < y.ElapsedMS {
			wins++
		}
	}
	return fastA, fastB, median(ratios), wins
}

// faster returns the faster of two runs of one mode; a run with a negative
// ElapsedMS stands for none.
func faster(x, y modeResult) modeResult {
	if x.ElapsedMS < 0 || (y.ElapsedMS >= 0 && y.ElapsedMS < x.ElapsedMS) {
		return y
	}
	return x
}

// median returns the median of xs (the mean of the middle two for an even
// count); it sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// printComparison diffs the fresh report against a previous file, printing
// one line per workload metric that is present on both sides.
func printComparison(path string, fresh fileReport) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("compare: cannot read %s (%v); skipping diff\n", path, err)
		return
	}
	var old fileReport
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Printf("compare: cannot parse %s (%v); skipping diff\n", path, err)
		return
	}
	prev := old.Workloads
	if prev == nil {
		fmt.Printf("compare: %s has no workloads section; skipping diff\n", path)
		return
	}

	names := make([]string, 0, len(fresh.Workloads))
	for name := range fresh.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("compare vs %s:\n", path)
	for _, name := range names {
		now := fresh.Workloads[name]
		was, ok := prev[name]
		if !ok {
			fmt.Printf("  %s: new workload (no previous data)\n", name)
			continue
		}
		fmt.Printf("  %s:\n", name)
		delta := benchutil.DeltaPrinter(os.Stdout)
		delta("uncached iters/sec", was.Uncached.ItersPerSec, now.Uncached.ItersPerSec, "")
		delta("warm iters/sec", was.CachedWarm.ItersPerSec, now.CachedWarm.ItersPerSec, "")
		delta("warm speedup", was.SpeedupWarm, now.SpeedupWarm, "x")
		delta("cold speedup", was.SpeedupCold, now.SpeedupCold, "x")
		delta("warm hit rate", was.CachedWarm.CacheHitRate*100, now.CachedWarm.CacheHitRate*100, "%")
		delta("best cost", was.CachedWarm.BestCost, now.CachedWarm.BestCost, "")
		// Older reports predate the alloc columns; zero means "not recorded",
		// and a delta against it would read as an infinite regression.
		if was.CachedWarm.AllocsPerIter > 0 {
			delta("warm allocs/iter", was.CachedWarm.AllocsPerIter, now.CachedWarm.AllocsPerIter, "")
			delta("cold allocs/iter", was.CachedCold.AllocsPerIter, now.CachedCold.AllocsPerIter, "")
		}
		if was.TreeParallel != nil && now.TreeParallel != nil {
			delta("tree speedup", was.TreeParallel.Speedup, now.TreeParallel.Speedup, "x")
		}
		if was.Snapshot != nil && now.Snapshot != nil {
			delta("snapshot speedup", was.Snapshot.Speedup, now.Snapshot.Speedup, "x")
			delta("snapshot entries", float64(was.Snapshot.Entries), float64(now.Snapshot.Entries), "")
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "searchbench: "+format+"\n", args...)
	os.Exit(1)
}
