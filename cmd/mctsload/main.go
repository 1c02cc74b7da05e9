// Command mctsload is the open-loop serving load harness: it drives a live
// mctsuid daemon with ServeGen-style multi-class traffic and emits a
// machine-readable BENCH_serving.json for the serving-performance
// trajectory, with the same gate and -compare conventions as searchbench.
//
// By default it starts an in-process daemon on 127.0.0.1:0 (the CI mode —
// no external process to manage); -addr points it at an already-running
// daemon (or a running mctsrouter) instead, and -fleet N starts N in-process
// replicas behind an in-process fleet router and drives the traffic through
// the router — the fleet-serving benchmark mode.
// Traffic comes from a workload spec (-spec file, or the built-in smoke
// spec), expanded deterministically into a trace: the same spec, -seed and
// window flags issue the identical request sequence.
//
// The run has a warmup phase (replayed, not reported) and a measured
// window; the report carries per-class and per-op p50/p95/p99 latency,
// throughput, goodput, 429/503 rates, SSE time-to-first-event, and the
// daemon's own cache/admission curves scraped from /v1/stats.
//
// Gates: -max-p99-ms bounds total p99 latency and -min-goodput floors
// overall goodput. Both are recorded always but enforced only when the
// machine has at least -gate-cpus CPUs (gate_enforced in the report), so
// an under-provisioned CI runner records its numbers without failing the
// build. -compare old.json prints per-metric deltas before any gate fires:
//
//	go run ./cmd/mctsload -out BENCH_serving.json -compare prev/BENCH_serving.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api/client"
	"repro/internal/benchutil"
	"repro/internal/load"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	out := flag.String("out", "BENCH_serving.json", "output file ('-' for stdout)")
	addr := flag.String("addr", "", "base URL of a running daemon (empty: start one in-process on 127.0.0.1:0)")
	specPath := flag.String("spec", "", "workload spec JSON (empty: built-in smoke spec)")
	seed := flag.Int64("seed", 0, "override the spec seed (0: keep the spec's)")
	duration := flag.Int64("duration-ms", 0, "override the measured window (0: keep the spec's)")
	warmup := flag.Int64("warmup-ms", -1, "override the warmup phase (-1: keep the spec's)")
	rateScale := flag.Float64("rate-scale", 1, "multiply every class arrival rate (load knob for sweeps)")
	statsEvery := flag.Duration("stats-every", 500*time.Millisecond, "/v1/stats scrape cadence (0 disables the curve)")
	comparePath := flag.String("compare", "", "previous BENCH_serving.json to diff against (per-metric deltas printed before gates)")
	maxP99 := flag.Float64("max-p99-ms", 2000, "fail if total p99 latency exceeds this many ms (0 disables)")
	minGoodput := flag.Float64("min-goodput", 1, "fail if overall goodput falls below this many req/s (0 disables)")
	gateCPUs := flag.Int("gate-cpus", 4, "enforce gates only when NumCPU >= this (numbers are recorded regardless)")
	cacheEntries := flag.Int("cache-entries", 0, "in-process daemon: eval cache capacity (0: engine default)")
	maxConcurrent := flag.Int("max-concurrent", 0, "in-process daemon: concurrent search slots (0: GOMAXPROCS)")
	maxWorkers := flag.Int("max-workers", 1, "in-process daemon: per-request tree_workers cap (1 keeps replays deterministic)")
	fleet := flag.Int("fleet", 0, "start this many in-process replicas behind an in-process fleet router and drive traffic through it (0: single daemon; ignored with -addr)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, events, err := buildTrace(*specPath, *seed, *duration, *warmup, *rateScale)
	if err != nil {
		fatalf("%v", err)
	}

	base := *addr
	if base == "" {
		cfg := server.Config{
			CacheEntries:  *cacheEntries,
			MaxConcurrent: *maxConcurrent,
			MaxWorkers:    *maxWorkers,
		}
		var shutdown func()
		if *fleet > 0 {
			base, shutdown, err = startFleet(*fleet, cfg)
		} else {
			base, shutdown, err = startDaemon(cfg)
		}
		if err != nil {
			fatalf("%v", err)
		}
		defer shutdown()
	} else if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if err := waitReady(ctx, base); err != nil {
		fatalf("daemon not ready: %v", err)
	}

	opt := load.Options{
		BaseURL: base,
		// One response can legitimately take the daemon's whole queue wait
		// plus a search; the client timeout exists only to bound a hung
		// connection, not to shed load (the daemon does that).
		Client:     &http.Client{Timeout: 2 * time.Minute},
		StatsEvery: *statsEvery,
	}

	fmt.Printf("mctsload: %s — %d events over %v (warmup %v) against %s\n",
		spec.Name, len(events), time.Duration(spec.DurationMS)*time.Millisecond,
		time.Duration(spec.WarmupMS)*time.Millisecond, base)
	res, err := load.Replay(ctx, events, opt)
	if err != nil {
		fatalf("replay: %v", err)
	}
	if res.Dispatched < len(events) {
		fmt.Printf("mctsload: interrupted after %d of %d events\n", res.Dispatched, len(events))
	}

	rep := load.BuildReport(spec, res)
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	failed := rep.ApplyGates(load.GateSpec{MaxP99MS: *maxP99, MinGoodputRPS: *minGoodput}, *gateCPUs)

	if err := benchutil.WriteJSON(*out, rep); err != nil {
		fatalf("%v", err)
	}
	printSummary(rep)

	// The readable diff comes before any gate, so a gate failure arrives
	// with the per-metric context of what regressed.
	if *comparePath != "" {
		printComparison(*comparePath, rep)
	}

	for _, g := range failed {
		if !rep.GateEnforced {
			fmt.Printf("gate %s: %.2f vs budget %.2f — FAILED but not enforced (cpus=%d < %d)\n",
				g.Name, g.Value, g.Budget, rep.CPUs, *gateCPUs)
			continue
		}
		fatalf("gate %s: %.2f vs budget %.2f", g.Name, g.Value, g.Budget)
	}
}

// buildTrace resolves the run's spec from the flags and generates its
// events.
func buildTrace(specPath string, seed, duration, warmup int64, rateScale float64) (*load.Spec, []load.Event, error) {
	var spec load.Spec
	if specPath != "" {
		s, err := load.LoadSpec(specPath)
		if err != nil {
			return nil, nil, err
		}
		spec = *s
	} else {
		spec = load.SmokeSpec()
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if duration > 0 {
		spec.DurationMS = duration
	}
	if warmup >= 0 {
		spec.WarmupMS = warmup
	}
	if rateScale <= 0 {
		return nil, nil, fmt.Errorf("rate-scale must be positive")
	}
	for i := range spec.Classes {
		spec.Classes[i].RatePerSec *= rateScale
	}

	events, err := load.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	return &spec, events, nil
}

// startDaemon brings up an in-process daemon on a loopback port and returns
// its base URL plus an ordered shutdown (drain searches, then close).
func startDaemon(cfg server.Config) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "mctsload: daemon: %v\n", err)
		}
	}()
	shutdown := func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain()
		_ = srv.Shutdown(shutCtx)
		_ = httpSrv.Shutdown(shutCtx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// startFleet brings up n in-process replicas behind an in-process fleet
// router and returns the router's base URL plus an ordered shutdown (drain
// every replica, then close the router). The whole fleet lives in one
// process — the CI-friendly way to measure routing overhead without
// orchestrating N daemons.
func startFleet(n int, cfg server.Config) (string, func(), error) {
	var shutdowns []func()
	shutdownAll := func() {
		for i := len(shutdowns) - 1; i >= 0; i-- {
			shutdowns[i]()
		}
	}
	urls := make([]string, n)
	for i := range urls {
		repCfg := cfg
		repCfg.ReplicaID = fmt.Sprintf("replica-%d", i)
		base, shutdown, err := startDaemon(repCfg)
		if err != nil {
			shutdownAll()
			return "", nil, err
		}
		urls[i] = base
		shutdowns = append(shutdowns, shutdown)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		shutdownAll()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		shutdownAll()
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "mctsload: router: %v\n", err)
		}
	}()
	shutdowns = append(shutdowns, func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutCtx)
		rt.Close()
	})
	// Routers shut down before replicas: reverse order drains the front first.
	return "http://" + ln.Addr().String(), shutdownAll, nil
}

// waitReady polls /readyz through the typed client until the target (daemon
// or router) reports ready — not merely alive: a warm-booting replica or a
// router with no ready replicas answers /healthz 200 long before it should
// take measured traffic.
func waitReady(ctx context.Context, base string) error {
	cl := client.New(base)
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, err := cl.Ready(ctx)
		if ok {
			return nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("readyz: not ready")
		}
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}

func printSummary(rep *load.Report) {
	fmt.Printf("total: %d requests (%d ok, %d err, %d 429, %d 503) — %.1f req/s, goodput %.1f req/s\n",
		rep.Total.Count, rep.Total.OK, rep.Total.Errors, rep.Total.Status429, rep.Total.Status503,
		rep.Total.ThroughputRPS, rep.Total.GoodputRPS)
	fmt.Printf("total latency: p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms\n",
		rep.Total.Latency.P50, rep.Total.Latency.P95, rep.Total.Latency.P99, rep.Total.Latency.Max)
	for _, c := range rep.Classes {
		line := fmt.Sprintf("  %-10s %5d reqs, goodput %6.1f req/s, p50 %7.1fms p99 %7.1fms",
			c.Class, c.Total.Count, c.Total.GoodputRPS, c.Total.Latency.P50, c.Total.Latency.P99)
		if c.Total.TTFE != nil {
			line += fmt.Sprintf(", ttfe p50 %.1fms", c.Total.TTFE.P50)
		}
		fmt.Println(line)
	}
	if s := rep.Server; s != nil {
		fmt.Printf("server: served %d (429:%d, 503-queue:%d, 503-drain:%d, gone:%d), queue wait mean %.2fms, cache hit rate %.1f%% (evictions %d, occupancy %.1f%%)\n",
			s.Served, s.Overflow429, s.QueueTimeouts, s.Draining503, s.ClientGone,
			s.QueueWaitMeanMS, s.CacheHitRate*100, s.CacheEvictions, s.CacheOccupancy*100)
	}
}

// printComparison diffs the fresh report against a previous BENCH_serving
// file, one line per metric present on both sides.
func printComparison(path string, fresh *load.Report) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("compare: cannot read %s (%v); skipping diff\n", path, err)
		return
	}
	var old load.Report
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Printf("compare: cannot parse %s (%v); skipping diff\n", path, err)
		return
	}
	if old.Schema != "" && old.Schema != fresh.Schema {
		fmt.Printf("compare: %s has schema %q, this run %q; skipping diff\n", path, old.Schema, fresh.Schema)
		return
	}
	fmt.Printf("compare vs %s:\n", path)
	delta := benchutil.DeltaPrinter(os.Stdout)
	delta("throughput req/s", old.Total.ThroughputRPS, fresh.Total.ThroughputRPS, "")
	delta("goodput req/s", old.Total.GoodputRPS, fresh.Total.GoodputRPS, "")
	delta("p50 ms", old.Total.Latency.P50, fresh.Total.Latency.P50, "")
	delta("p95 ms", old.Total.Latency.P95, fresh.Total.Latency.P95, "")
	delta("p99 ms", old.Total.Latency.P99, fresh.Total.Latency.P99, "")
	delta("429 rate", old.Total.Rate429*100, fresh.Total.Rate429*100, "%")
	delta("503 rate", old.Total.Rate503*100, fresh.Total.Rate503*100, "%")
	if old.Server != nil && fresh.Server != nil {
		delta("cache hit rate", old.Server.CacheHitRate*100, fresh.Server.CacheHitRate*100, "%")
		delta("queue wait mean ms", old.Server.QueueWaitMeanMS, fresh.Server.QueueWaitMeanMS, "")
	}
	oldClasses := make(map[string]load.ClassReport, len(old.Classes))
	for _, c := range old.Classes {
		oldClasses[c.Class] = c
	}
	for _, c := range fresh.Classes {
		was, ok := oldClasses[c.Class]
		if !ok {
			fmt.Printf("  %s: new class (no previous data)\n", c.Class)
			continue
		}
		delta(c.Class+" p99 ms", was.Total.Latency.P99, c.Total.Latency.P99, "")
		delta(c.Class+" goodput", was.Total.GoodputRPS, c.Total.GoodputRPS, "")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mctsload: "+format+"\n", args...)
	os.Exit(1)
}
