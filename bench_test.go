package mctsui

// One benchmark per experiment id of experiments.Named. Benchmarks report
// the achieved interface cost via b.ReportMetric (metric "cost") next to
// the usual time/allocation numbers, so `go test -bench` measures both the
// performance and the quality of what cmd/experiments reports.

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// benchOpts is the standard search budget used across benches: big enough
// to reproduce the paper's shapes, small enough to keep bench runs fast.
func benchOpts(screen layout.Screen) core.Options {
	return core.Options{
		Screen:       screen,
		Iterations:   15,
		RolloutDepth: 8,
		Seed:         1,
	}
}

func reportCost(b *testing.B, c float64) {
	if math.IsInf(c, 1) {
		c = -1
	}
	b.ReportMetric(c, "cost")
}

// reportLiveHeap reports the live heap after a GC as live-MB (MiB), with
// the timer stopped.
func reportLiveHeap(b *testing.B) {
	b.StopTimer()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	b.ReportMetric(float64(s[0].Value.Uint64())/(1<<20), "live-MB")
}

// BenchmarkFig6aAllQueriesWide regenerates Figure 6(a): all SDSS queries on
// the wide screen.
func BenchmarkFig6aAllQueriesWide(b *testing.B) {
	log := workload.SDSSLog()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := core.Generate(context.Background(), log, benchOpts(layout.Wide))
		if err != nil {
			b.Fatal(err)
		}
		last = res.Cost.Total()
	}
	reportCost(b, last)
}

// BenchmarkFig6bAllQueriesNarrow regenerates Figure 6(b): the narrow screen
// flips wide enumerations to compact widgets.
func BenchmarkFig6bAllQueriesNarrow(b *testing.B) {
	log := workload.SDSSLog()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := core.Generate(context.Background(), log, benchOpts(layout.Narrow))
		if err != nil {
			b.Fatal(err)
		}
		last = res.Cost.Total()
	}
	reportCost(b, last)
}

// BenchmarkFig6cSubset regenerates Figure 6(c): queries 6-8 produce a much
// simpler interface.
func BenchmarkFig6cSubset(b *testing.B) {
	log := workload.SDSSSubset(6, 8)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := core.Generate(context.Background(), log, benchOpts(layout.Wide))
		if err != nil {
			b.Fatal(err)
		}
		last = res.Cost.Total()
	}
	reportCost(b, last)
}

// BenchmarkFig6dLowReward regenerates Figure 6(d): the cost of an
// unsearched random-walk state (contrast with Fig6a's searched cost).
func BenchmarkFig6dLowReward(b *testing.B) {
	log := workload.SDSSLog()
	model := cost.Default(layout.Wide)
	var last float64
	for i := 0; i < b.N; i++ {
		d, err := core.RandomWalk(log, 5, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		_, bd, _ := core.BestInterface(d, log, model, 2000, 1)
		last = bd.Total()
	}
	reportCost(b, last)
}

// BenchmarkFig6eReferenceForm scores the hand-coded SDSS-form-style
// interface (flat textboxes/radios) for Figure 6(e).
func BenchmarkFig6eReferenceForm(b *testing.B) {
	log := workload.SDSSLog()
	model := cost.Default(layout.Wide)
	var last float64
	for i := 0; i < b.N; i++ {
		bd, err := experiments.ReferenceForm(log, model)
		if err != nil {
			b.Fatal(err)
		}
		last = bd.Total()
	}
	reportCost(b, last)
}

// BenchmarkSearchFanout measures the move-enumeration cost and reports the
// initial fanout (paper: "as high as 50").
func BenchmarkSearchFanout(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	fan := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fan = core.Fanout(init, log, rules.All())
	}
	b.ReportMetric(float64(fan), "fanout")
}

// BenchmarkMCTSBudgetSweep traces cost against the iteration budget
// (paper: ~1 minute of search suffices).
func BenchmarkMCTSBudgetSweep(b *testing.B) {
	log := workload.SDSSLog()
	for _, iters := range []int{1, 5, 15, 40} {
		b.Run(itoa(iters)+"iters", func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(layout.Wide)
				o.Iterations = iters
				res, err := core.Generate(context.Background(), log, o)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost.Total()
			}
			reportCost(b, last)
		})
	}
}

// BenchmarkBaselineVsMCTS compares the 2017 bottom-up baseline with MCTS on
// the SDSS log (experiment C1).
func BenchmarkBaselineVsMCTS(b *testing.B) {
	log := workload.SDSSLog()
	model := cost.Default(layout.Wide)
	b.Run("baseline2017", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			iface, err := baseline.Build(log, model)
			if err != nil {
				b.Fatal(err)
			}
			last = iface.Cost.Total()
		}
		reportCost(b, last)
	})
	b.Run("mcts", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := core.Generate(context.Background(), log, benchOpts(layout.Wide))
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost.Total()
		}
		reportCost(b, last)
	})
}

// benchEngine is an uncached engine with core's rule set and size cap, so
// every iteration enumerates moves from scratch.
func benchEngine(init *difftree.Node, log []*ast.Node) *eval.Engine {
	return eval.New(eval.Config{Log: log, Rules: rules.All(), SizeCap: search.SizeCap(init)}, nil)
}

// BenchmarkSearchStrategies compares MCTS against random, greedy, and beam
// search (experiment C2).
func BenchmarkSearchStrategies(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	model := cost.Default(layout.Wide)
	obj := func(d *difftree.Node) float64 {
		return eval.SampledCost(d, log, model, 3, 1)
	}
	b.Run("random", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			r := search.Random(context.Background(), init, benchEngine(init, log), obj, 4, 8, 1)
			last = r.BestCost
		}
		reportCost(b, last)
	})
	b.Run("greedy", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			r := search.Greedy(context.Background(), init, benchEngine(init, log), obj, 12)
			last = r.BestCost
		}
		reportCost(b, last)
	})
	b.Run("beam3", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			r := search.Beam(context.Background(), init, benchEngine(init, log), obj, 3, 8)
			last = r.BestCost
		}
		reportCost(b, last)
	})
	b.Run("mcts", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := core.Generate(context.Background(), log, benchOpts(layout.Wide))
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost.Total()
		}
		reportCost(b, last)
	})
}

// BenchmarkExplorationConstant sweeps UCT's c (ablation A1).
func BenchmarkExplorationConstant(b *testing.B) {
	log := workload.SDSSLog()
	for _, c := range []float64{0.2, 1.4, 5} {
		b.Run("c="+ftoa(c), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(layout.Wide)
				o.ExplorationC = c
				res, err := core.Generate(context.Background(), log, o)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost.Total()
			}
			reportCost(b, last)
		})
	}
}

// BenchmarkRolloutDepth sweeps the rollout cap (ablation A2a).
func BenchmarkRolloutDepth(b *testing.B) {
	log := workload.SDSSLog()
	for _, depth := range []int{2, 8, 25} {
		b.Run("depth="+itoa(depth), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(layout.Wide)
				o.RolloutDepth = depth
				res, err := core.Generate(context.Background(), log, o)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost.Total()
			}
			reportCost(b, last)
		})
	}
}

// BenchmarkRewardSamples sweeps k, the widget assignments per reward
// (ablation A2b).
func BenchmarkRewardSamples(b *testing.B) {
	log := workload.SDSSLog()
	for _, k := range []int{1, 5, 10} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(layout.Wide)
				o.RewardSamples = k
				res, err := core.Generate(context.Background(), log, o)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost.Total()
			}
			reportCost(b, last)
		})
	}
}

// BenchmarkScalingLogSize sweeps the synthetic log size (experiment S1).
func BenchmarkScalingLogSize(b *testing.B) {
	for _, n := range []int{5, 10, 20} {
		log := workload.Generate(workload.GenConfig{
			Queries: n, Tables: 3, Projections: 3, TopValues: 3,
			Predicates: 3, PredColumns: 3, LiteralVars: 2, OptWhere: true, Seed: 11})
		b.Run(itoa(n)+"queries", func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := core.Generate(context.Background(), log, benchOpts(layout.Wide))
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost.Total()
			}
			reportCost(b, last)
		})
	}
}

// BenchmarkGenerate is the canonical allocation benchmark for the search hot
// path: one sequential MCTS Generate over the full SDSS log, in the three
// cache modes the searchbench harness times. CI runs it with -benchmem and
// records allocs/op; the uncached mode is the no-memoization reference, cold
// pays first-search cache fills, warm is the steady state an interactive
// session lives in. Each mode reports process CPU time per op (cpu-ms/op)
// next to wall time; warm also reports live-MB, the heap held with its
// primed cache, most of which is the cache's move lists.
func BenchmarkGenerate(b *testing.B) {
	log := workload.SDSSLog()
	run := func(b *testing.B, opt core.Options) {
		var last float64
		cpu, _ := benchutil.ProcessCPU()
		for i := 0; i < b.N; i++ {
			res, err := core.Generate(context.Background(), log, opt)
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cost.Total()
		}
		benchutil.ReportCPU(b, b.N, cpu)
		reportCost(b, last)
	}
	b.Run("uncached", func(b *testing.B) {
		opt := benchOpts(layout.Wide)
		opt.DisableMemo = true
		run(b, opt)
	})
	b.Run("cold", func(b *testing.B) {
		// A fresh cache every op: every measured run pays the full
		// first-search miss/insert path.
		cpu, _ := benchutil.ProcessCPU()
		for i := 0; i < b.N; i++ {
			opt := benchOpts(layout.Wide)
			opt.Cache = eval.NewCache(0)
			res, err := core.Generate(context.Background(), log, opt)
			if err != nil {
				b.Fatal(err)
			}
			reportCost(b, res.Cost.Total())
		}
		benchutil.ReportCPU(b, b.N, cpu)
	})
	b.Run("warm", func(b *testing.B) {
		opt := benchOpts(layout.Wide)
		opt.Cache = eval.NewCache(0)
		// Prime outside the timed region.
		if _, err := core.Generate(context.Background(), log, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, opt)
		reportLiveHeap(b)
		runtime.KeepAlive(opt.Cache)
	})
}

// Micro-benchmarks for the hot paths.

func BenchmarkParseSDSSQuery(b *testing.B) {
	src := workload.SDSSLogSQL()[0]
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpressSDSS(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !difftree.Expressible(init, log[i%len(log)]) {
			b.Fatal("inexpressible")
		}
	}
}

func BenchmarkMovesSDSS(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rules.Moves(init, log, rules.All())) == 0 {
			b.Fatal("no moves")
		}
	}
}

func BenchmarkStateCost(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	model := cost.Default(layout.Wide)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.SampledCost(init, log, model, 5, 1)
	}
}

func BenchmarkEngineExec(b *testing.B) {
	db := engineDB()
	q := sqlparser.MustParse(workload.SDSSLogSQL()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execBench(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	p := len(buf)
	for n > 0 {
		p--
		buf[p] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}

func ftoa(f float64) string {
	i := int(f * 10)
	return itoa(i/10) + "." + itoa(i%10)
}
