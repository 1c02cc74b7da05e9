package mctsui

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mcts"
	"repro/internal/sqlparser"
)

// Default search parameters, re-exported from the engine's single source of
// truth (internal/core) so documentation and behavior cannot drift.
const (
	DefaultIterations    = core.DefaultIterations
	DefaultRolloutDepth  = core.DefaultRolloutDepth
	DefaultRewardSamples = core.DefaultRewardSamples
	DefaultSeed          = core.DefaultSeed
	DefaultExplorationC  = core.DefaultExplorationC
)

// Strategy is a pluggable search procedure; obtain instances from
// StrategyMCTS, StrategyBeam, StrategyGreedy, StrategyRandom,
// StrategyExhaustive, or StrategyByName and install one with WithStrategy.
type Strategy = core.Strategy

// Progress is an anytime snapshot of a running search, delivered to the
// WithProgress callback: BestCost is monotone non-increasing and the
// counters monotone non-decreasing.
type Progress = core.Progress

// Stats summarizes a finished search, including the best-so-far cost
// trajectory; see Interface.Stats.
type Stats = core.Stats

// TrajectoryPoint is one best-so-far improvement in Stats.Trajectory.
type TrajectoryPoint = core.TrajectoryPoint

// StrategyMCTS returns the paper's Monte Carlo Tree Search (the default).
func StrategyMCTS() Strategy { return core.StrategyMCTS() }

// StrategyBeam returns beam search with the given frontier width (a default
// width when <= 0); iterations bound the generations. Cheaper than MCTS on
// large logs.
func StrategyBeam(width int) Strategy { return core.StrategyBeam(width) }

// StrategyGreedy returns greedy hill-climbing to a local optimum.
func StrategyGreedy() Strategy { return core.StrategyGreedy() }

// StrategyRandom returns independent uniform random walks (a default count
// when walks <= 0); rollout depth bounds each walk.
func StrategyRandom(walks int) Strategy { return core.StrategyRandom(walks) }

// StrategyExhaustive returns breadth-first enumeration capped at maxStates
// (a default cap when <= 0) — the exact optimum on tiny logs.
func StrategyExhaustive(maxStates int) Strategy { return core.StrategyExhaustive(maxStates) }

// StrategyByName resolves "mcts", "beam[:width]", "greedy",
// "random[:walks]", or "exhaustive[:maxStates]" — the form accepted by
// command-line flags.
func StrategyByName(spec string) (Strategy, error) { return core.StrategyByName(spec) }

// Cache is a concurrency-safe transposition cache over search states: it
// memoizes state costs, legality verdicts, and legal move sets keyed by the
// difftree's structural hash. Every Generate call uses one internally
// (shared by its tree workers); construct one with NewCache and install it
// with WithCache to additionally share evaluations across Generate calls — or
// across Generators — that search the same log under the same settings.
// Because state evaluation is deterministic per state, caching never changes
// a result: for a fixed seed, cached and uncached runs return the same best
// interface.
type Cache struct {
	c *eval.Cache
}

// CacheStats reports cumulative cache effectiveness; see Cache.Stats.
type CacheStats = eval.Stats

// NewCache returns a cache bounded at maxEntries memoized states (a default
// of about a million when <= 0). A full cache admits new states by evicting
// cold ones — per-shard CLOCK (second-chance) with hit tracking, so a
// scan-heavy workload evicts its own one-shot states before the hot set —
// which makes one bounded cache safe to share for the whole lifetime of a
// long-running service under an unbounded stream of workloads. Eviction
// never changes a result: state evaluation is deterministic per state, so a
// dropped entry is recomputed bit-identically on its next visit. The paths
// the cached move sets name are bounded with it (maxEntries paths, within
// 2^16 to 2^23): once that table is full, the cache starts an empty one and
// drops the move sets of the old one, to be recomputed the same way. Reset
// remains available as a hard rotation point.
func NewCache(maxEntries int) *Cache {
	return &Cache{c: eval.NewCache(maxEntries)}
}

// Stats snapshots the cache's hit/miss/occupancy counters.
func (c *Cache) Stats() CacheStats { return c.c.Stats() }

// Reset drops every memoized state, and the paths their move sets name, and
// zeroes the counters. Safe during concurrent searches: evaluation is
// deterministic per state, so in-flight lookups just recompute the
// identical values.
func (c *Cache) Reset() { c.c.Reset() }

// Generator generates interfaces from query logs. The zero-argument New()
// is ready to use with the paper's defaults; functional options tune it.
// A Generator is immutable after New and safe for concurrent use.
type Generator struct {
	opt core.Options
}

// Option configures a Generator.
type Option func(*Generator)

// New returns a Generator configured by opts.
func New(opts ...Option) *Generator {
	g := &Generator{}
	for _, o := range opts {
		o(g)
	}
	return g
}

// WithScreen sets the output screen constraint; interfaces that do not fit
// are discarded as invalid. Default WideScreen.
func WithScreen(s Screen) Option { return func(g *Generator) { g.opt.Screen = s } }

// WithIterations bounds the search iteration budget (default
// DefaultIterations; ignored when only WithTimeBudget is set).
func WithIterations(n int) Option { return func(g *Generator) { g.opt.Iterations = n } }

// WithTimeBudget bounds wall-clock search time (the paper runs ~1 minute
// per interface). The search may also be ended early at any moment by the
// context passed to Generate.
func WithTimeBudget(d time.Duration) Option { return func(g *Generator) { g.opt.TimeBudget = d } }

// WithSeed makes generation deterministic (default DefaultSeed).
func WithSeed(seed int64) Option { return func(g *Generator) { g.opt.Seed = seed } }

// WithRolloutDepth bounds random walks during search (default
// DefaultRolloutDepth; the paper allows up to 200).
func WithRolloutDepth(n int) Option { return func(g *Generator) { g.opt.RolloutDepth = n } }

// WithRewardSamples sets k, the random widget assignments scored per state
// (default DefaultRewardSamples).
func WithRewardSamples(k int) Option { return func(g *Generator) { g.opt.RewardSamples = k } }

// WithTreeWorkers runs the MCTS search tree-parallel: n goroutines share
// one search tree, with a virtual-loss penalty steering concurrent workers
// onto different paths and all leaf evaluations draining through the shared
// transposition cache. This multiplies iterations/sec within one search —
// the lever that matters under the paper's 1-minute wall-clock budget — and
// is the one way to spend several cores on one generation.
//
// Determinism contract: n <= 1 (the default) is the sequential search,
// bit-identical per seed. n > 1 gives up run-to-run reproducibility (worker
// interleaving decides which states are visited) in exchange for speed;
// only the quality envelope is pinned. Non-MCTS strategies ignore this
// option. Values below 1 mean 1.
func WithTreeWorkers(n int) Option {
	return func(g *Generator) {
		if n < 1 {
			n = 1
		}
		g.opt.TreeWorkers = n
	}
}

// WithStrategy selects the search strategy (default StrategyMCTS()).
func WithStrategy(s Strategy) Option { return func(g *Generator) { g.opt.Strategy = s } }

// WithCache installs a shared transposition cache (see NewCache), reusing
// memoized state evaluations across every Generate call — and every
// Generator — it is passed to. Without this option each Generate call uses
// a fresh private cache (still shared by that call's tree workers). A nil
// cache is ignored. Like every option, the last of WithCache/WithoutCache
// wins.
func WithCache(c *Cache) Option {
	return func(g *Generator) {
		if c != nil {
			g.opt.Cache = c.c
			g.opt.DisableMemo = false
		}
	}
}

// WithoutCache disables the evaluation engine's memoization entirely: every
// state is re-scored, re-validated, and re-enumerated on each visit. For a
// fixed seed the result is identical to the cached run — this exists as the
// reference baseline for the bench harness (`make bench-json`) and for
// memory-constrained environments. The last of WithCache/WithoutCache wins.
func WithoutCache() Option {
	return func(g *Generator) {
		g.opt.DisableMemo = true
		g.opt.Cache = nil
	}
}

// WithWarmStart seeds the search from a previously generated interface
// instead of the query log's initial state — the incremental hook for
// long-lived sessions: after appending queries to a log, pass the previous
// interface and the search resumes from it rather than rediscovering the
// same structure from scratch. The warm state is used only when it is still
// legal for the new log (it expresses every query, including appended ones,
// and fits the size cap); otherwise the search silently runs cold —
// Stats().WarmStarted reports which happened. A nil interface is ignored.
func WithWarmStart(f *Interface) Option {
	return func(g *Generator) {
		if f != nil {
			g.opt.WarmStart = f.res.DiffTree
		}
	}
}

// SearchTree is an opaque persisted MCTS search tree, obtained from
// Interface.SearchTree after a sequential (TreeWorkers <= 1) MCTS search and
// fed back through WithSearchTree on the next Generate over an appended log.
// It retains every state the search materialized, so holders should keep
// only the latest tree per session rather than accumulate generations.
type SearchTree struct {
	t *mcts.Tree
}

// WithSearchTree seeds the MCTS search with a tree persisted by a previous
// generation — the second half of the incremental hook for long-lived
// sessions, alongside WithWarmStart: WithWarmStart reuses the previous
// *interface* as the starting state, WithSearchTree reuses the previous
// *search statistics* around it. When the search's starting state occurs
// anywhere in the reused tree, the search re-roots on that subtree — visit
// counts and expanded children included — instead of rediscovering it;
// children that already carry visits skip their simulation pass, which is
// where the evaluation savings come from. Stats().ReRooted reports whether
// re-rooting happened. Reused nodes are reconciled against the current
// (appended) log before being descended through, so a stale tree can never
// smuggle in states that are no longer legal — results remain bit-identical
// to what a search over the current log could produce. Only the sequential
// MCTS search persists and accepts trees: with WithTreeWorkers(n > 1) or a
// non-MCTS strategy the option is ignored and SearchTree() returns nil. A
// nil tree is ignored.
func WithSearchTree(t *SearchTree) Option {
	return func(g *Generator) {
		if t != nil && t.t != nil {
			g.opt.SearchTree = t.t
		}
	}
}

// WithoutInitialCost skips computing the initial-state quality reference:
// Interface.InitialCost() then reports zero and Stats().InitialFan stays
// unset. The reference exists only for reporting (the gap to Cost()
// measures what the search bought); serving hot paths that never read it —
// especially warm-started regenerations, whose searches skip the initial
// state entirely — save a full extraction pass per request by dropping it.
func WithoutInitialCost() Option {
	return func(g *Generator) { g.opt.SkipInitialRef = true }
}

// WithProgress installs an anytime observability callback, invoked with
// best-so-far snapshots while the search runs. With WithTreeWorkers the
// callback is serialized across the workers. The callback runs on a search
// goroutine and must be fast.
func WithProgress(fn func(Progress)) Option { return func(g *Generator) { g.opt.Progress = fn } }

// Generate parses the query log (one SQL string per entry) and runs the
// full pipeline under ctx.
//
// Generate is anytime: cancelling ctx — or passing a deadline — stops the
// search promptly and returns the best interface found so far rather than
// an error (Stats().Interrupted reports the early stop). Errors are
// reserved for empty logs and unparsable queries.
func (g *Generator) Generate(ctx context.Context, queries []string) (*Interface, error) {
	log, err := parseLog(queries)
	if err != nil {
		return nil, err
	}
	return g.GenerateFromASTs(ctx, log)
}

// GenerateMulti splits a mixed query log into structurally coherent clusters
// (one analysis task each) and generates one interface per cluster with g's
// settings. Real logs interleave unrelated tasks; a single interface over
// all of them degenerates into one giant query picker, while per-cluster
// interfaces recover the paper's setting. Clusters appear in first-query
// log order. Each cluster's search is anytime under ctx, as in Generate.
func (g *Generator) GenerateMulti(ctx context.Context, queries []string) ([]*Interface, error) {
	log, err := parseLog(queries)
	if err != nil {
		return nil, err
	}
	clusters := cluster.Split(log)
	out := make([]*Interface, 0, len(clusters))
	for _, c := range clusters {
		iface, err := g.GenerateFromASTs(ctx, c.Queries)
		if err != nil {
			return nil, err
		}
		out = append(out, iface)
	}
	return out, nil
}

// parseLog parses one SQL string per log entry, naming the first entry that
// fails.
func parseLog(queries []string) ([]*ast.Node, error) {
	if len(queries) == 0 {
		return nil, errors.New("mctsui: empty query log")
	}
	log := make([]*ast.Node, len(queries))
	for i, q := range queries {
		n, err := sqlparser.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("mctsui: query %d: %w", i+1, err)
		}
		log[i] = n
	}
	return log, nil
}

// GenerateFromASTs runs the pipeline on pre-parsed queries (see the
// internal/sqlparser and internal/workload packages) with the same anytime
// semantics as Generate.
func (g *Generator) GenerateFromASTs(ctx context.Context, log []*ast.Node) (*Interface, error) {
	if len(log) == 0 {
		return nil, errors.New("mctsui: empty query log")
	}
	res, err := core.Generate(ctx, log, g.opt)
	if err != nil {
		return nil, err
	}
	return &Interface{res: res}, nil
}
