// Package mctsui generates interactive data-analysis interfaces from SQL
// query logs using Monte Carlo Tree Search, reproducing Chen & Wu,
// "Monte Carlo Tree Search for Generating Interactive Data Analysis
// Interfaces" (2020).
//
// Given a sequence of SQL queries that are part of an analysis task, the
// library extracts their syntactic differences into a difftree, searches the
// space of difftree transformations with MCTS, and returns the lowest-cost
// interactive interface: a hierarchy of layout widgets (vertical/horizontal
// boxes, tabs, adders) and interaction widgets (dropdowns, radio buttons,
// sliders, toggles, ...) that can express every query in the log — and
// usually a generalization of them.
//
// The entry point is the Generator, an anytime, context-aware engine:
//
//	gen := mctsui.New(
//	    mctsui.WithScreen(mctsui.WideScreen),
//	    mctsui.WithTimeBudget(time.Minute),            // the paper's budget
//	    mctsui.WithProgress(func(p mctsui.Progress) {  // best-so-far snapshots
//	        fmt.Printf("iter %d: cost %.2f\n", p.Iterations, p.BestCost)
//	    }),
//	)
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	iface, err := gen.Generate(ctx, []string{
//	    "SELECT Sales FROM sales WHERE cty = USA",
//	    "SELECT Costs FROM sales WHERE cty = EUR",
//	    "SELECT Costs FROM sales",
//	})
//	if err != nil { ... }
//	fmt.Println(iface.ASCII())      // render the widget tree
//	sess := iface.NewSession()      // drive it interactively
//	fmt.Println(sess.SQL())         // the current query
//
// Cancelling the context (or hitting its deadline) stops the search
// promptly and yields the best interface found so far — generation never
// fails just because time ran out. WithStrategy swaps the paper's MCTS for
// beam, greedy, random, or exhaustive search, and WithTreeWorkers runs one
// MCTS search on several cores. GenerateMulti splits a log that mixes analysis
// tasks into clusters and generates one interface per cluster.
package mctsui

import (
	"sync"

	"repro/internal/core"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/sqlparser"
)

// Screen is the output screen constraint in layout units (≈ pixels).
type Screen = layout.Screen

// Screen presets matching the paper's Figure 6(a) and 6(b).
var (
	WideScreen   = layout.Wide
	NarrowScreen = layout.Narrow
)

// Interface is a generated interactive interface.
type Interface struct {
	res *core.Result

	// The interface never changes once built, so its codec JSON is
	// encoded once (see MarshalJSON) and every later read shares it.
	encOnce sync.Once
	enc     []byte
	encErr  error

	cooccurOnce sync.Once
	cooccur     map[pairKey]bool // log co-occurrence index, built on first use
}

// Cost returns the interface's total cost C(W,Q); +Inf if no valid
// interface was found.
func (f *Interface) Cost() float64 { return f.res.Cost.Total() }

// CostBreakdown returns (M, U): widget appropriateness and transition
// effort.
func (f *Interface) CostBreakdown() (m, u float64) { return f.res.Cost.M, f.res.Cost.U }

// Valid reports whether a screen-fitting interface expressing every log
// query was found.
func (f *Interface) Valid() bool { return f.res.Cost.Valid }

// NumWidgets returns the number of interaction widgets.
func (f *Interface) NumWidgets() int { return f.res.Cost.Widgets }

// Bounds returns the interface bounding box (width, height).
func (f *Interface) Bounds() (w, h int) {
	return f.res.Cost.Bounds.W, f.res.Cost.Bounds.H
}

// ASCII renders the widget tree as text.
func (f *Interface) ASCII() string {
	if f.res.UI == nil {
		return "(static interface: the log contains a single distinct query)\n"
	}
	return layout.RenderASCII(f.res.UI)
}

// HTML renders the widget tree as an HTML fragment.
func (f *Interface) HTML() string {
	if f.res.UI == nil {
		return "<div class=\"generated-interface\"></div>\n"
	}
	return layout.RenderHTML(f.res.UI)
}

// DiffTree renders the underlying difftree in the paper's notation.
func (f *Interface) DiffTree() string { return f.res.DiffTree.String() }

// Describe summarizes the interface and its search statistics in one line.
func (f *Interface) Describe() string { return f.res.Describe() }

// Stats exposes the final search diagnostics: strategy, iteration and
// evaluation counters, whether the search was interrupted by its context,
// the best-so-far cost trajectory (Stats.Trajectory, monotone
// non-increasing in cost), and the evaluation engine's transposition-cache
// metrics (Stats.CacheHits / CacheMisses / CacheHitRate — zero when the
// cache was disabled with WithoutCache).
func (f *Interface) Stats() Stats { return f.res.Stats }

// SearchTree returns the MCTS search tree this generation persisted, for
// feeding back through WithSearchTree on the next generation over an
// appended log (see that option for the re-rooting contract). It is nil
// unless the interface came from a sequential (TreeWorkers <= 1) MCTS
// search.
func (f *Interface) SearchTree() *SearchTree {
	if f.res.SearchTree == nil {
		return nil
	}
	return &SearchTree{t: f.res.SearchTree}
}

// InitialCost returns the best cost achievable at the unsearched initial
// state (the paper's Figure 2(a)-style interface); the gap to Cost()
// measures what the search bought.
func (f *Interface) InitialCost() float64 { return f.res.Initial.Total() }

// Queries enumerates up to limit distinct SQL queries the interface can
// express — typically a superset of the input log.
func (f *Interface) Queries(limit int) []string {
	qs := difftree.EnumerateQueries(f.res.DiffTree, limit, 4)
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = sqlparser.Render(q)
	}
	return out
}

// CanExpress reports whether the interface can express the given SQL query.
func (f *Interface) CanExpress(query string) (bool, error) {
	q, err := sqlparser.Parse(query)
	if err != nil {
		return false, err
	}
	return difftree.Expressible(f.res.DiffTree, q), nil
}
