// Command mctsui generates an interactive data-analysis interface from a
// SQL query log file (one query per line; -- and # comment lines ignored).
//
// Usage:
//
//	mctsui [-log queries.sql | -workload sdss|sdss-join|sdss-join-block|figure1]
//	       [-width 1200 -height 800] [-iters 60 | -budget 60s]
//	       [-seed 1] [-strategy mcts|beam[:W]|greedy|random[:N]|exhaustive[:M]]
//	       [-tree-workers N] [-progress]
//	       [-format ascii|html|both] [-show-queries N]
//
// With no -log flag it runs on the paper's SDSS log (Listing 1). The search
// is anytime: interrupt with Ctrl-C and the best interface found so far is
// printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	mctsui "repro"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

func main() {
	logPath := flag.String("log", "", "query log file (default: the -workload log)")
	workloadName := flag.String("workload", "sdss", "built-in log when no -log is given: sdss | sdss-join | sdss-join-block | figure1")
	width := flag.Int("width", 1200, "screen width in layout units")
	height := flag.Int("height", 800, "screen height in layout units")
	iters := flag.Int("iters", mctsui.DefaultIterations, "search iterations (ignored when -budget is set)")
	budget := flag.Duration("budget", 0, "wall-clock search budget, e.g. 60s (the paper's setting)")
	seed := flag.Int64("seed", mctsui.DefaultSeed, "random seed")
	strategy := flag.String("strategy", "mcts", "search strategy: mcts, beam[:width], greedy, random[:walks], or exhaustive[:states]")
	treeWorkers := flag.Int("tree-workers", 1, "goroutines sharing the MCTS search tree (>1 trades determinism for speed)")
	progress := flag.Bool("progress", false, "stream best-so-far snapshots to stderr while searching")
	format := flag.String("format", "ascii", "output format: ascii, html, page (interactive HTML), json, or both")
	showQueries := flag.Int("show-queries", 0, "also print up to N expressible queries")
	stats := flag.Bool("stats", false, "print search statistics")
	flag.Parse()

	var queries []string
	if *logPath == "" {
		switch *workloadName {
		case "sdss":
			queries = workload.SDSSLogSQL()
		case "sdss-join":
			queries = workload.SDSSJoinLogSQL()
		case "sdss-join-block":
			queries = workload.SDSSJoinLogSQL()[:6]
		case "figure1":
			for _, q := range workload.PaperFigure1Log() {
				queries = append(queries, sqlparser.Render(q))
			}
		default:
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		fmt.Fprintf(os.Stderr, "mctsui: no -log given; using the built-in %s log\n", *workloadName)
	} else {
		data, err := os.ReadFile(*logPath)
		if err != nil {
			fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "--") || strings.HasPrefix(line, "#") {
				continue
			}
			queries = append(queries, line)
		}
		if len(queries) == 0 {
			fatal(fmt.Errorf("no queries in %s", *logPath))
		}
	}

	strat, err := mctsui.StrategyByName(*strategy)
	if err != nil {
		fatal(err)
	}
	opts := []mctsui.Option{
		mctsui.WithScreen(mctsui.Screen{W: *width, H: *height}),
		mctsui.WithSeed(*seed),
		mctsui.WithStrategy(strat),
		mctsui.WithTreeWorkers(*treeWorkers),
	}
	if *budget > 0 {
		opts = append(opts, mctsui.WithTimeBudget(*budget))
	} else {
		opts = append(opts, mctsui.WithIterations(*iters))
	}
	if *progress {
		opts = append(opts, mctsui.WithProgress(func(p mctsui.Progress) {
			fmt.Fprintf(os.Stderr, "\r%s iter=%d evals=%d best=%.2f elapsed=%v   ",
				p.Strategy, p.Iterations, p.Evals, p.BestCost, p.Elapsed.Round(time.Millisecond))
		}))
	}

	// Ctrl-C cancels the search; the best-so-far interface is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	iface, err := mctsui.New(opts...).Generate(ctx, queries)
	if err != nil {
		fatal(err)
	}
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if iface.Stats().Interrupted {
		fmt.Fprintln(os.Stderr, "mctsui: search interrupted; showing the best interface found so far")
	}

	switch *format {
	case "html":
		fmt.Print(iface.HTML())
	case "page":
		page, err := iface.Page("Generated interface")
		if err != nil {
			fatal(err)
		}
		fmt.Print(page)
	case "json":
		data, err := iface.MarshalJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case "both":
		fmt.Print(iface.ASCII())
		fmt.Println()
		fmt.Print(iface.HTML())
	default:
		fmt.Print(iface.ASCII())
	}
	if *format == "page" || *format == "json" {
		return
	}

	w, h := iface.Bounds()
	fmt.Printf("\ncost=%.2f widgets=%d bounds=%dx%d screen=%dx%d elapsed=%v\n",
		iface.Cost(), iface.NumWidgets(), w, h, *width, *height, time.Since(start).Round(time.Millisecond))

	if *stats {
		s := iface.Stats()
		fmt.Printf("search: strategy=%s tree-workers=%d iterations=%d expanded=%d rollouts=%d evals=%d best-reward=%.3f initial-fanout=%d initial-cost=%.2f interrupted=%v\n",
			s.Strategy, s.TreeWorkers, s.Iterations, s.Expanded, s.Rollouts, s.Evals, s.BestReward, s.InitialFan, iface.InitialCost(), s.Interrupted)
		if n := len(s.Trajectory); n > 0 {
			last := s.Trajectory[n-1]
			fmt.Printf("trajectory: %d improvements, final best %.2f after %d evals (%v)\n",
				n, last.Cost, last.Evals, last.Elapsed.Round(time.Millisecond))
		}
	}
	if *showQueries > 0 {
		fmt.Printf("\nexpressible queries (up to %d):\n", *showQueries)
		for _, q := range iface.Queries(*showQueries) {
			fmt.Printf("  %s\n", q)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mctsui:", err)
	os.Exit(1)
}
