// Package experiments regenerates every figure and claim of the paper's
// evaluation (Named lists the experiment ids). Each experiment returns a
// plain-text report; cmd/experiments prints them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/assign"
	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/widgets"
	"repro/internal/workload"
)

// Config tunes experiment scale.
type Config struct {
	Iterations   int   // MCTS iterations per generated interface
	RolloutDepth int   // rollout cap (paper: 200)
	Seed         int64 // base seed
}

// Default returns cmd/experiments' default settings.
func Default() Config { return Config{Iterations: 40, RolloutDepth: 12, Seed: 1} }

func (c Config) opts(screen layout.Screen) core.Options {
	return core.Options{
		Screen:       screen,
		Iterations:   c.Iterations,
		RolloutDepth: c.RolloutDepth,
		Seed:         c.Seed,
	}
}

// Fig6a generates the all-queries interface on the wide screen.
func Fig6a(ctx context.Context, cfg Config) string {
	return figure(ctx, cfg, "Figure 6(a): all SDSS queries, wide screen", workload.SDSSLog(), layout.Wide)
}

// Fig6b generates the all-queries interface on the narrow screen.
func Fig6b(ctx context.Context, cfg Config) string {
	return figure(ctx, cfg, "Figure 6(b): all SDSS queries, narrow screen", workload.SDSSLog(), layout.Narrow)
}

// Fig6c generates the interface for SDSS queries 6-8 only.
func Fig6c(ctx context.Context, cfg Config) string {
	return figure(ctx, cfg, "Figure 6(c): SDSS queries 6-8, wide screen", workload.SDSSSubset(6, 8), layout.Wide)
}

func figure(ctx context.Context, cfg Config, title string, log []*ast.Node, screen layout.Screen) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	res, err := core.Generate(ctx, log, cfg.opts(screen))
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String()
	}
	b.WriteString(layout.RenderASCII(res.UI))
	fmt.Fprintf(&b, "cost=%.2f (M=%.2f U=%.2f) widgets=%d bounds=%dx%d screen=%s\n",
		res.Cost.Total(), res.Cost.M, res.Cost.U, res.Cost.Widgets,
		res.Cost.Bounds.W, res.Cost.Bounds.H, screen)
	fmt.Fprintf(&b, "initial-state cost=%.2f  improvement=%.1f%%\n",
		res.Initial.Total(), 100*(1-res.Cost.Total()/res.Initial.Total()))
	fmt.Fprintf(&b, "widget mix: %s\n", widgetMix(res.UI))
	return b.String()
}

func widgetMix(ui *layout.Node) string {
	if ui == nil {
		return "(none)"
	}
	counts := map[string]int{}
	var order []string
	for _, w := range ui.Widgets() {
		k := w.Type.String()
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	var parts []string
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s x%d", k, counts[k]))
	}
	return strings.Join(parts, ", ")
}

// Fig6d contrasts searched interfaces with unsearched random-walk states
// (the paper's "low reward interface ... poor interface choices are easily
// possible").
func Fig6d(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Figure 6(d): low-reward (unsearched) interfaces ==\n")
	log := workload.SDSSLog()
	model := cost.Default(layout.Wide)

	res, err := core.Generate(ctx, log, cfg.opts(layout.Wide))
	if err != nil {
		return err.Error()
	}
	fmt.Fprintf(&b, "searched (MCTS %d iters): cost=%.2f\n", cfg.Iterations, res.Cost.Total())

	for _, steps := range []int{2, 5, 10} {
		worst, sum, n := 0.0, 0.0, 0
		for seed := int64(0); seed < 5; seed++ {
			d, err := core.RandomWalk(log, steps, cfg.Seed+seed*17)
			if err != nil {
				continue
			}
			_, bd, _ := core.BestInterface(d, log, model, 2000, cfg.Seed)
			c := bd.Total()
			if math.IsInf(c, 1) {
				c = 250 // report invalid states at a large finite sentinel
			}
			if c > worst {
				worst = c
			}
			sum += c
			n++
		}
		fmt.Fprintf(&b, "random walk %2d steps (5 seeds): mean cost=%.2f worst=%.2f\n",
			steps, sum/float64(n), worst)
	}
	return b.String()
}

// Fig6e scores a hand-coded replica of the original SDSS search form (all
// textboxes and radio buttons in a flat column, as in the paper's Figure
// 6(e)) under the same cost model, for reference.
func Fig6e(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Figure 6(e): original SDSS form (hand-coded reference) ==\n")
	log := workload.SDSSLog()
	bd, err := ReferenceForm(log, cost.Default(layout.Wide))
	if err != nil {
		return err.Error()
	}
	res, err := core.Generate(ctx, log, cfg.opts(layout.Wide))
	if err != nil {
		return err.Error()
	}
	fmt.Fprintf(&b, "SDSS-form-style (textboxes+radios, flat): cost=%.2f (M=%.2f U=%.2f) widgets=%d\n",
		bd.Total(), bd.M, bd.U, bd.Widgets)
	fmt.Fprintf(&b, "generated (MCTS):                        cost=%.2f (M=%.2f U=%.2f) widgets=%d\n",
		res.Cost.Total(), res.Cost.M, res.Cost.U, res.Cost.Widgets)
	return b.String()
}

// ReferenceForm scores Figure 6(e)'s SDSS-form-style interface for log:
// the 2017 baseline's flat UI rebuilt with the SDSS form's widget choices,
// textboxes for every scalar and radio buttons for categorical slots.
func ReferenceForm(log []*ast.Node, model cost.Model) (cost.Breakdown, error) {
	base, err := baseline.Build(log, model)
	if err != nil {
		return cost.Breakdown{}, err
	}
	var ws []*layout.Node
	var walk func(n, parent *difftree.Node)
	walk = func(n, parent *difftree.Node) {
		if n.Kind.IsChoice() {
			dom := assign.DomainOf(n, parent)
			t := widgets.Textbox
			if !dom.Scalar || widgets.IsInf(widgets.Appropriateness(widgets.Textbox, dom)) {
				t = widgets.Radio
			}
			if widgets.IsInf(widgets.Appropriateness(t, dom)) {
				t = widgets.Dropdown
			}
			ws = append(ws, layout.NewWidget(t, dom, n))
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(base.DiffTree, nil)
	form := layout.NewBox(widgets.VBox, ws...)
	return model.NewEvaluator(base.DiffTree, log).Evaluate(form), nil
}

// SearchSpace measures the paper's search-space characterization: "The
// fanout is as high as 50, and a search path can be as long as 100 steps."
func SearchSpace(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Search space (paper: fanout up to ~50, paths up to ~100 steps) ==\n")
	log := workload.SDSSLog()
	init, _ := difftree.Initial(log)

	fan := core.Fanout(init, log, rules.All())
	fmt.Fprintf(&b, "initial state: fanout=%d choices=%d size=%d\n",
		fan, init.CountChoice(), init.Size())

	// Walk randomly, recording fanout along the way and how long legal
	// paths can get. Moves that balloon the tree past the search's size
	// cap are skipped, matching its pruning.
	sizeCap := search.SizeCap(init)
	maxFan, pathLen := fan, 0
	d := init
	rng := rand.New(rand.NewSource(cfg.Seed))
	for step := 0; step < 100; step++ {
		if ctx.Err() != nil {
			fmt.Fprintf(&b, "(cancelled after %d steps)\n", step)
			break
		}
		moves := rules.Moves(d, log, rules.All())
		if len(moves) > maxFan {
			maxFan = len(moves)
		}
		var candidates []*difftree.Node
		for _, m := range moves {
			next, err := rules.ApplyMove(d, m)
			if err == nil && next.Size() <= sizeCap {
				candidates = append(candidates, next)
			}
		}
		if len(candidates) == 0 {
			break
		}
		d = candidates[rng.Intn(len(candidates))]
		pathLen++
	}
	fmt.Fprintf(&b, "random path: length>=%d (cap 100, states capped at 4x initial size), max fanout seen=%d\n", pathLen, maxFan)
	return b.String()
}

// BudgetSweep traces interface cost against the search budget (the paper
// runs MCTS "for around 1 minute"; we report cost vs iterations and the
// wall-clock each took).
func BudgetSweep(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Cost vs search budget (MCTS) ==\n")
	log := workload.SDSSLog()
	fmt.Fprintf(&b, "%-12s %-10s %-10s %-12s\n", "iterations", "cost", "reward", "elapsed")
	for _, iters := range []int{1, 5, 10, 20, 40} {
		o := cfg.opts(layout.Wide)
		o.Iterations = iters
		start := time.Now()
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			fmt.Fprintf(&b, "%-12d error: %v\n", iters, err)
			continue
		}
		fmt.Fprintf(&b, "%-12d %-10.2f %-10.3f %-12v\n",
			iters, res.Cost.Total(), res.Stats.BestReward, time.Since(start).Round(time.Millisecond))
	}
	return b.String()
}

// BaselineCompare scores the 2017 bottom-up baseline against MCTS on the
// paper's logs.
func BaselineCompare(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Prior work (Zhang et al. 2017 bottom-up) vs MCTS ==\n")
	cases := []struct {
		name string
		log  []*ast.Node
	}{
		{"figure-1 (3 queries)", workload.PaperFigure1Log()},
		{"sdss (10 queries)", workload.SDSSLog()},
		{"sdss 6-8", workload.SDSSSubset(6, 8)},
		{"synthetic (20 queries)", workload.Generate(workload.GenConfig{
			Queries: 20, Tables: 3, Projections: 3, TopValues: 3,
			Predicates: 3, PredColumns: 3, LiteralVars: 2, OptWhere: true, Seed: 5})},
	}
	model := cost.Default(layout.Wide)
	fmt.Fprintf(&b, "%-24s %-22s %-22s\n", "log", "baseline cost (widgets)", "mcts cost (widgets)")
	for _, c := range cases {
		base, err := baseline.Build(c.log, model)
		baseCost, baseW := math.Inf(1), 0
		if err == nil {
			baseCost, baseW = base.Cost.Total(), base.UI.CountWidgets()
		}
		res, err := core.Generate(ctx, c.log, cfg.opts(layout.Wide))
		mctsCost, mctsW := math.Inf(1), 0
		if err == nil {
			mctsCost, mctsW = res.Cost.Total(), res.Cost.Widgets
		}
		fmt.Fprintf(&b, "%-24s %-22s %-22s\n", c.name,
			fmt.Sprintf("%.2f (%d)", baseCost, baseW),
			fmt.Sprintf("%.2f (%d)", mctsCost, mctsW))
	}
	return b.String()
}

// Strategies compares MCTS against random walks, greedy hill climbing, beam
// search, and (on a tiny input) exhaustive enumeration. Every strategy runs
// through the same core.Strategy plumbing the public API exposes, so this
// is also an end-to-end exercise of WithStrategy.
func Strategies(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Search strategies (same cost model and rule set) ==\n")
	log := workload.SDSSLog()

	for _, s := range []core.Strategy{
		core.StrategyMCTS(),
		core.StrategyRandom(6),
		core.StrategyGreedy(),
		core.StrategyBeam(3),
	} {
		o := cfg.opts(layout.Wide)
		o.Strategy = s
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			fmt.Fprintf(&b, "%-12s error: %v\n", s.Name(), err)
			continue
		}
		fmt.Fprintf(&b, "%-12s cost=%-8.2f evals=%d\n", s.Name(), res.Cost.Total(), res.Stats.Evals)
	}

	// Exhaustive on a 2-query log (tiny space) to calibrate optimality.
	tiny := workload.PaperFigure1Log()[:2]
	exOpts := cfg.opts(layout.Wide)
	exOpts.Strategy = core.StrategyExhaustive(4000)
	exOpts.RewardSamples = 1
	ex, err := core.Generate(ctx, tiny, exOpts)
	if err != nil {
		fmt.Fprintf(&b, "tiny log (2 queries): error: %v\n", err)
		return b.String()
	}
	tinyRes, _ := core.Generate(ctx, tiny, cfg.opts(layout.Wide))
	fmt.Fprintf(&b, "tiny log (2 queries): exhaustive=%.2f (complete=%v, states=%d)  mcts=%.2f\n",
		ex.Cost.Total(), ex.Stats.SpaceExhausted, ex.Stats.Expanded, tinyRes.Cost.Total())
	return b.String()
}

// AblationC sweeps the UCT exploration constant.
func AblationC(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Ablation: UCT exploration constant c ==\n")
	log := workload.SDSSLog()
	fmt.Fprintf(&b, "%-8s %-10s %-10s\n", "c", "cost", "reward")
	for _, c := range []float64{0.2, 0.7, math.Sqrt2, 2.5, 5} {
		o := cfg.opts(layout.Wide)
		o.ExplorationC = c
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-8.2f %-10.2f %-10.3f\n", c, res.Cost.Total(), res.Stats.BestReward)
	}
	return b.String()
}

// AblationRollout sweeps rollout depth and the reward sample count k.
func AblationRollout(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Ablation: rollout depth and reward samples k ==\n")
	log := workload.SDSSLog()
	fmt.Fprintf(&b, "%-14s %-10s %-12s\n", "rollout depth", "cost", "elapsed")
	for _, depth := range []int{2, 6, 12, 25} {
		o := cfg.opts(layout.Wide)
		o.RolloutDepth = depth
		start := time.Now()
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-14d %-10.2f %-12v\n", depth, res.Cost.Total(), time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "%-14s %-10s\n", "k (samples)", "cost")
	for _, k := range []int{1, 3, 5, 10} {
		o := cfg.opts(layout.Wide)
		o.RewardSamples = k
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-14d %-10.2f\n", k, res.Cost.Total())
	}
	return b.String()
}

// Scaling sweeps the synthetic log size.
func Scaling(ctx context.Context, cfg Config) string {
	var b strings.Builder
	b.WriteString("== Scaling with log size (synthetic generator) ==\n")
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-10s %-12s\n", "queries", "fanout", "cost", "widgets", "elapsed")
	for _, n := range []int{5, 10, 20} {
		log := workload.Generate(workload.GenConfig{
			Queries: n, Tables: 3, Projections: 3, TopValues: 3,
			Predicates: 3, PredColumns: 3, LiteralVars: 2, OptWhere: true, Seed: 11})
		init, err := difftree.Initial(log)
		if err != nil {
			continue
		}
		fan := core.Fanout(init, log, rules.All())
		start := time.Now()
		res, err := core.Generate(ctx, log, cfg.opts(layout.Wide))
		if err != nil {
			fmt.Fprintf(&b, "%-10d %-10d error: %v\n", n, fan, err)
			continue
		}
		fmt.Fprintf(&b, "%-10d %-10d %-10.2f %-10d %-12v\n",
			n, fan, res.Cost.Total(), res.Cost.Widgets, time.Since(start).Round(time.Millisecond))
	}
	return b.String()
}

// All runs every experiment in the order cmd/experiments lists them.
func All(ctx context.Context, cfg Config) string {
	sections := []func(context.Context, Config) string{
		Fig6a, Fig6b, Fig6c, Fig6d, Fig6e,
		SearchSpace, BudgetSweep, BaselineCompare, Strategies,
		AblationC, AblationRollout, Scaling,
	}
	var b strings.Builder
	for _, f := range sections {
		b.WriteString(f(ctx, cfg))
		b.WriteByte('\n')
	}
	return b.String()
}

// Named returns the experiment runner for an experiment id.
func Named(name string) (func(context.Context, Config) string, bool) {
	m := map[string]func(context.Context, Config) string{
		"fig6a":            Fig6a,
		"fig6b":            Fig6b,
		"fig6c":            Fig6c,
		"fig6d":            Fig6d,
		"fig6e":            Fig6e,
		"space":            SearchSpace,
		"budget":           BudgetSweep,
		"baseline":         BaselineCompare,
		"strategies":       Strategies,
		"ablation-c":       AblationC,
		"ablation-rollout": AblationRollout,
		"scaling":          Scaling,
		"all":              All,
	}
	f, ok := m[name]
	return f, ok
}
