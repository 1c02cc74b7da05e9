// Package core orchestrates the paper's end-to-end pipeline: parse the query
// log into ASTs, build the initial difftree, search the space of difftrees
// (transformation rules as moves, best-of-k random widget assignments as
// the reward), and finally enumerate widget trees for the best difftree to
// extract the lowest-cost interface.
//
// The search is anytime and pluggable: Generate takes a context.Context
// (cancellation and deadlines end the search promptly with the best
// interface found so far), Options.Strategy selects the exploration policy
// (MCTS by default; beam, greedy, random, and exhaustive via the Strategy
// constructors), and Options.Progress streams best-so-far snapshots while
// the search runs.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/assign"
	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/mcts"
	"repro/internal/rules"
	"repro/internal/search"
)

// Options tunes interface generation; the zero value is filled with the
// paper's defaults.
type Options struct {
	// Screen is the output screen constraint (default layout.Wide).
	Screen layout.Screen
	// Iterations bounds MCTS iterations (default 60; ignored when
	// TimeBudget is set and Iterations == 0).
	Iterations int
	// TimeBudget bounds wall-clock search time (the paper runs ~1 minute).
	TimeBudget time.Duration
	// RolloutDepth bounds random walks. The paper allows up to 200 steps;
	// the default here is 16, which rests on an ablation at equal iterations
	// on SDSS (experiments.AblationRollout). At equal wall-clock time depth
	// 4 measured ahead (see ROADMAP). Set 200 to mirror the paper exactly.
	RolloutDepth int
	// RewardSamples is k, the number of random widget assignments scored per
	// state during search (default 5).
	RewardSamples int
	// ExplorationC is the UCT exploration constant (default √2).
	ExplorationC float64
	// EnumLimit caps the final widget-tree enumeration (default 20000).
	EnumLimit int
	// Seed makes generation deterministic (default 1).
	Seed int64
	// Cache is the shared transposition cache backing the memoized
	// evaluation engine. Nil means a private cache per Generate call. Pass
	// the same cache to successive or concurrent calls to reuse state
	// evaluations across searches with the same log, screen, and seed.
	Cache *eval.Cache
	// WarmStart, when non-nil, seeds the search at this difftree instead of
	// the log's initial state — the incremental-serving hook: a session that
	// appends queries to its log restarts the search from its previous best
	// interface rather than from scratch. The warm tree is used only if it
	// is a legal state for the *current* log (it still expresses every
	// query, including the appended ones, and fits the size cap derived from
	// the fresh initial state); otherwise it is ignored and the search runs
	// cold. Stats.WarmStarted reports which happened. The initial state
	// keeps its other roles either way (size cap, Stats.InitialFan, the
	// Initial cost reference).
	WarmStart *difftree.Node
	// SearchTree, when non-nil, seeds the MCTS strategy with the search tree
	// persisted by a previous sequential run (Result.SearchTree), typically
	// alongside WarmStart on a session append: if the warm root occurs in
	// the reused tree, the search re-roots there and keeps the subtree's
	// visit statistics instead of rebuilding the tree from scratch
	// (Stats.ReRooted reports it; reconciliation semantics in mcts.Config).
	// Only a sequential (TreeWorkers <= 1) MCTS search consults it, so a
	// re-rooted session append stays reproducible per seed; multi-worker
	// and non-MCTS searches ignore it and persist nothing.
	SearchTree *mcts.Tree
	// SkipInitialRef leaves Result.Initial zero and Stats.InitialFan
	// unset, skipping the extraction pass and move enumeration that exist
	// only to report the unsearched initial state's quality. Serving hot
	// paths set this: with a warm start the search never visits the
	// initial state, so the reference would be recomputed from scratch on
	// every request just to be discarded.
	SkipInitialRef bool
	// DisableMemo turns the evaluation engine's memoization off entirely:
	// every state is re-scored, re-validated, and re-enumerated on every
	// visit. Results are identical for a fixed seed — only slower; the
	// bench harness uses this as its reference baseline.
	DisableMemo bool
	// Strategy selects the search procedure (default StrategyMCTS()).
	Strategy Strategy
	// TreeWorkers is the number of goroutines sharing the MCTS search tree
	// (mcts.Config.TreeWorkers): workers diversify by virtual loss and
	// drain their leaf evaluations through the shared transposition cache.
	// <= 1 (the default) runs one worker, bit-identical per seed; > 1
	// trades that reproducibility for iterations/sec (only the quality
	// envelope is pinned). Non-MCTS strategies ignore it.
	TreeWorkers int
	// Progress, when non-nil, receives anytime snapshots while the search
	// runs. With TreeWorkers > 1 the calls are serialized across workers.
	Progress func(Progress)
}

// Result is a generated interface plus search diagnostics.
type Result struct {
	DiffTree *difftree.Node // best difftree found
	UI       *layout.Node   // lowest-cost widget tree for it
	Cost     cost.Breakdown // its cost breakdown
	Initial  cost.Breakdown // cost of the initial state's best interface
	Stats    Stats          // search statistics
	Log      []*ast.Node    // the input log (parsed)
	// SearchTree is the MCTS tree this search built (sequential MCTS only,
	// nil for TreeWorkers > 1 and other strategies). Feed it back through
	// Options.SearchTree on the next warm-started call over the same
	// session to re-root instead of rebuilding. It retains every state the
	// search materialized; keep only the latest.
	SearchTree *mcts.Tree
}

// Stats summarizes the search.
type Stats struct {
	Strategy   string // strategy that produced the result
	Iterations int    // MCTS iterations; objective evaluations otherwise
	Expanded   int    // expanded nodes (states visited for non-MCTS)
	Rollouts   int    // random walks (MCTS only)
	// Evals counts cost evaluations. With memoization on it is the number
	// of unique states this run scored, each counted once however often
	// the search revisits it and whatever a shared Options.Cache already
	// holds, so a warm search reports the Evals, and the Trajectory evals
	// and costs, of a cold one. With DisableMemo every call counts.
	Evals          int
	BestReward     float64
	InitialFan     int  // fanout (legal moves) of the initial state
	EnumComplete   bool // final widget-tree enumeration was exhaustive
	SpaceExhausted bool // StrategyExhaustive swept the entire space
	Interrupted    bool // the context ended the search before its budget
	WarmStarted    bool // the search was seeded from Options.WarmStart
	ReRooted       bool // the MCTS tree was reused via Options.SearchTree
	TreeWorkers    int  // goroutines sharing the search tree (1 = sequential)
	Elapsed        time.Duration
	// CacheHits/CacheMisses/CacheEntries snapshot the evaluation engine's
	// transposition cache at the end of the search (all zero with
	// DisableMemo). With a caller-provided shared cache the counters are
	// cumulative across every search the cache served.
	CacheHits    int64
	CacheMisses  int64
	CacheEntries int64
	// CacheHitRate is CacheHits/(CacheHits+CacheMisses), 0 when unused.
	CacheHitRate float64
	// Trajectory is the best-so-far cost curve: one point per improvement,
	// costs monotone non-increasing.
	Trajectory []TrajectoryPoint
}

// Generate runs the full pipeline on parsed query ASTs. It is an anytime
// call: when ctx is cancelled or its deadline passes mid-search, the best
// interface found so far is extracted and returned (with Stats.Interrupted
// set) rather than an error. A nil ctx is treated as context.Background().
func Generate(ctx context.Context, log []*ast.Node, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if len(log) == 0 {
		return nil, errors.New("core: empty query log")
	}
	init, err := difftree.Initial(log)
	if err != nil {
		return nil, err
	}

	model := cost.Default(opt.Screen)
	eng := newEngine(log, init, model, opt)
	p := newProblem(log, init, model, opt, eng)
	if opt.WarmStart != nil && eng.LegalState(opt.WarmStart) {
		// Warm start: the previous best interface is still a legal state for
		// this (possibly extended) log, so the search resumes from it.
		p.root = opt.WarmStart
	}

	res := opt.Strategy.search(ctx, p)
	best := res.best

	// Final extraction: enumerate all widget trees for the best difftree
	// (sampling beyond the cap) and keep the argmin. When the search ended
	// on the initial state — e.g. a context cancelled before the first
	// iteration — one extraction serves as both the result and the
	// initial-state reference, halving the post-cancellation work.
	ui, bd, complete := BestInterface(best, log, model, opt.EnumLimit, opt.Seed)

	initBD := bd
	if opt.SkipInitialRef {
		initBD = cost.Breakdown{}
	} else if difftree.Hash(best) != difftree.Hash(init) {
		_, initBD, _ = BestInterface(init, log, model, opt.EnumLimit, opt.Seed)
	}

	stats := res.stats
	if !opt.SkipInitialRef {
		// For cold searches the engine already enumerated (and memoized)
		// the initial state's legal move set during the search, so this is
		// a cache hit; a warm-started search may compute it here. Either
		// way InitialFan stays consistent with the size-capped moves every
		// strategy actually sees.
		stats.InitialFan = len(eng.Moves(init))
	}
	stats.EnumComplete = complete
	stats.WarmStarted = p.root != p.init
	if stats.TreeWorkers == 0 {
		stats.TreeWorkers = 1 // non-MCTS strategies always run sequentially
	}
	//mctsvet:allow wallclock -- Elapsed is observability reported in Stats; it never influences the search result
	stats.Elapsed = time.Since(p.start)
	cs := eng.CacheStats()
	stats.CacheHits, stats.CacheMisses, stats.CacheEntries = cs.Hits, cs.Misses, cs.Entries
	stats.CacheHitRate = cs.HitRate()
	// Close the trajectory with the extraction result, which can undercut
	// the search-time estimate (it enumerates far more assignments).
	if c := bd.Total(); c < p.bestCost && !math.IsInf(c, 1) {
		p.traj = append(p.traj, TrajectoryPoint{Evals: p.evals, Elapsed: stats.Elapsed, Cost: c})
	}
	stats.Trajectory = p.traj

	out := &Result{
		DiffTree:   best,
		UI:         ui,
		Cost:       bd,
		Initial:    initBD,
		Log:        log,
		Stats:      stats,
		SearchTree: res.tree,
	}
	return out, nil
}

// BestInterface enumerates (or samples past the cap) the widget trees of a
// difftree and returns the cheapest, with its breakdown and whether the
// enumeration was exhaustive.
func BestInterface(d *difftree.Node, log []*ast.Node, model cost.Model, enumLimit int, seed int64) (*layout.Node, cost.Breakdown, bool) {
	plan, err := assign.BuildPlan(d)
	if err != nil {
		return nil, cost.Breakdown{Valid: false, Reason: err.Error()}, true
	}
	ev := model.NewEvaluator(d, log)
	if !d.HasChoice() {
		return nil, ev.Evaluate(nil), true
	}

	var bestUI *layout.Node
	bestBD := cost.Breakdown{Valid: false, Reason: "no assignment evaluated"}
	bestC := math.Inf(1)
	consider := func(ui *layout.Node) {
		bd := ev.Evaluate(ui)
		if c := bd.Total(); c < bestC {
			bestC, bestBD, bestUI = c, bd, ui
		}
	}

	complete := plan.Enumerate(enumLimit, func(ui *layout.Node) bool {
		consider(ui)
		return true
	})
	if !complete {
		// The space exceeds the cap: top up with random samples.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < enumLimit/2; i++ {
			consider(plan.Random(rng))
		}
	}
	if bestUI == nil {
		return nil, cost.Breakdown{Valid: false, Reason: "no widget tree found"}, complete
	}
	return bestUI, bestBD, complete
}

// newEngine builds the evaluation engine for one generate call: the
// memoized (or, with DisableMemo, recomputing) source of state costs,
// legality verdicts, and move sets that every strategy shares. Costs are
// seeded per state from Seed, so two engines with equal configs agree on
// every value — the basis for sharing Options.Cache across successive and
// concurrent calls. The size cap derives from the initial state, not the
// search root, so a warm start cannot inflate the reachable space.
func newEngine(log []*ast.Node, init *difftree.Node, model cost.Model, opt Options) *eval.Engine {
	cache := opt.Cache
	if cache == nil && !opt.DisableMemo {
		cache = eval.NewCache(0)
	}
	if opt.DisableMemo {
		cache = nil
	}
	return eval.New(eval.Config{
		Log:     log,
		Model:   model,
		Samples: opt.RewardSamples,
		Rules:   rules.All(),
		SizeCap: search.SizeCap(init),
		Seed:    opt.Seed,
	}, cache)
}

// state adapts a difftree to mcts.State.
type state struct {
	d *difftree.Node
	h uint64
}

// Hash implements mcts.State.
func (s state) Hash() uint64 { return s.h }

// domain adapts the difftree space to mcts.Domain + mcts.Sampler, backed by
// the shared evaluation engine. Rewards read costs through the problem's
// run-local memo (problem.cost). Neighbor *states* are deliberately not
// memoized: the engine caches the move sets (the expensive part), and
// rebuilding the successor trees on demand is cheap — a previous per-run
// neighbor-state memo retained tens of thousands of materialized trees, and
// the GC mark cost of that pointer-dense heap was a large share of the
// cold-cache slowdown.
type domain struct {
	p     *problem
	scale float64 // reward normalization: the initial state's cost
}

func newDomain(p *problem) *domain {
	d := &domain{p: p}
	if c := p.eng.StateCost(p.init); !math.IsInf(c, 1) && c > 0 {
		d.scale = c
	} else {
		d.scale = 10
	}
	return d
}

// Neighbors implements mcts.Domain: the engine's (memoized) legal move set,
// applied. Successor trees are rebuilt on demand — content-identical each
// time (states are keyed by structural hash everywhere), so not retaining
// them trades a little rebuild work for a much smaller retained heap.
func (d *domain) Neighbors(s mcts.State) []mcts.State {
	st := s.(state)
	ts := d.p.eng.Neighbors(st.d)
	out := make([]mcts.State, 0, len(ts))
	for _, t := range ts {
		out = append(out, state{d: t, h: difftree.Hash(t)})
	}
	return out
}

// RandomNeighbor implements mcts.Sampler with the engine's rollout step,
// eval.Engine.RandomMove. Its precondition, a legal state, is the domain's
// invariant: the search starts at the initial state or a warm start that
// passed LegalState, every successor is a legal move, and a search tree
// reused across a log append reconciles each stale node's children under
// the current log before descending through them.
func (d *domain) RandomNeighbor(s mcts.State, rng *rand.Rand) (mcts.State, bool) {
	next, ok := d.p.eng.RandomMove(s.(state).d, rng)
	if !ok {
		return nil, false
	}
	return state{d: next, h: difftree.Hash(next)}, true
}

// Reward implements mcts.Domain: 1/(1 + cost/scale), so the initial state
// scores 0.5 and better interfaces approach 1. Costs come from the engine
// (deterministic per state) through the problem's run-local memo, which
// records each state's first evaluation of the run.
func (d *domain) Reward(s mcts.State) float64 {
	st := s.(state)
	c := d.p.cost(st.d, st.h, d.p.noteCost)
	if math.IsInf(c, 1) {
		return 0
	}
	return 1.0 / (1.0 + c/d.scale)
}

// Fanout counts the legal moves of a difftree (the paper reports fanouts up
// to ~50 on the SDSS log).
func Fanout(d *difftree.Node, log []*ast.Node, set []rules.Rule) int {
	return len(rules.Moves(d, log, set))
}

// RandomWalk performs n random legal moves from the initial state with the
// rollout step (eval.Engine.RandomMove) and returns the resulting difftree;
// used to produce the paper's Figure 6(d) "low reward interface" without
// search.
func RandomWalk(log []*ast.Node, steps int, seed int64) (*difftree.Node, error) {
	init, err := difftree.Initial(log)
	if err != nil {
		return nil, err
	}
	opt := Options{}.withDefaults()
	eng := newEngine(log, init, cost.Default(opt.Screen), opt)
	rng := rand.New(rand.NewSource(seed))
	cur := init
	for i := 0; i < steps; i++ {
		next, ok := eng.RandomMove(cur, rng)
		if !ok {
			break
		}
		cur = next
	}
	return cur, nil
}

// Describe renders a one-line summary of a result for logs and examples.
func (r *Result) Describe() string {
	return fmt.Sprintf("cost=%.2f (M=%.2f U=%.2f) widgets=%d bounds=%dx%d iters=%d evals=%d",
		r.Cost.Total(), r.Cost.M, r.Cost.U, r.Cost.Widgets,
		r.Cost.Bounds.W, r.Cost.Bounds.H, r.Stats.Iterations, r.Stats.Evals)
}
