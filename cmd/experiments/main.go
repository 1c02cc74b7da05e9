// Command experiments regenerates the paper's figures and claims (one
// experiment id per experiments.Named entry) and prints plain-text reports
// to compare against the paper's expectations.
//
// Usage:
//
//	experiments [-run all|fig6a|fig6b|fig6c|fig6d|fig6e|space|budget|
//	             baseline|strategies|ablation-c|ablation-rollout|scaling]
//	            [-iters 40] [-rollout 12] [-seed 1] [-timeout 0]
//
// Experiments honor Ctrl-C (and -timeout): the run stops promptly and the
// reports produced so far are kept.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id (see experiments.Named) or comma-separated list")
	iters := flag.Int("iters", 40, "search iterations per generated interface")
	rollout := flag.Int("rollout", 12, "rollout depth during search")
	seed := flag.Int64("seed", 1, "base seed")
	timeout := flag.Duration("timeout", 0, "overall wall-clock cap for the run (0 = none)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Iterations: *iters, RolloutDepth: *rollout, Seed: *seed}
	start := time.Now()
	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		f, ok := experiments.Named(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Print(f(ctx, cfg))
		fmt.Println()
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: run cancelled; partial reports above")
			break
		}
	}
	fmt.Printf("total elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}
