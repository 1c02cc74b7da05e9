// Command sdss reproduces the paper's headline demonstration: generating
// interfaces for the Sloan Digital Sky Survey query log (Listing 1) under a
// wide and a narrow screen (Figure 6(a) and 6(b)), then executing the
// interface's current query live against a synthetic SDSS catalog and
// rendering the recommended visualization.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	mctsui "repro"
	"repro/internal/engine"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	iters := flag.Int("iters", 15, "MCTS iterations per screen")
	rows := flag.Int("rows", 2000, "rows per synthetic SDSS table")
	seed := flag.Int64("seed", 1, "search seed")
	flag.Parse()
	ctx := context.Background()

	queries := workload.SDSSLogSQL()
	fmt.Println("SDSS query log (paper Listing 1):")
	for i, q := range queries {
		fmt.Printf("  %2d  %s\n", i+1, q)
	}

	for _, sc := range []struct {
		name   string
		screen mctsui.Screen
	}{
		{"wide screen (Figure 6a)", mctsui.WideScreen},
		{"narrow screen (Figure 6b)", mctsui.NarrowScreen},
	} {
		fmt.Printf("\n=== %s %v ===\n", sc.name, sc.screen)
		iface, err := mctsui.New(
			mctsui.WithScreen(sc.screen),
			mctsui.WithIterations(*iters),
			mctsui.WithSeed(*seed),
		).Generate(ctx, queries)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(iface.ASCII())
		w, h := iface.Bounds()
		fmt.Printf("cost=%.2f widgets=%d bounds=%dx%d (screen %v)\n",
			iface.Cost(), iface.NumWidgets(), w, h, sc.screen)
	}

	// Live execution against the synthetic catalog.
	fmt.Println("\n=== live session (wide screen interface) ===")
	iface, err := mctsui.New(
		mctsui.WithIterations(*iters),
		mctsui.WithSeed(*seed),
	).Generate(ctx, queries)
	if err != nil {
		log.Fatal(err)
	}
	db := engine.SDSSDB(*rows, 42)
	sess := iface.NewSession()

	for _, qi := range []int{0, 3} { // q1 (top-10 scan) and q4 (count)
		if err := sess.LoadQuery(queries[qi]); err != nil {
			log.Fatalf("load q%d: %v", qi+1, err)
		}
		sql, _ := sess.SQL()
		fmt.Printf("\ncurrent query: %s\n", sql)
		res, spec, err := sess.Execute(db)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recommended visualization: %s\n", spec.Type)
		fmt.Print(viz.Render(res, spec, 8))
	}
}
