// Command mctsrouter is the fleet router: a thin HTTP layer in front of N
// mctsuid replicas that makes the fleet look like one daemon — consistent-
// hash placement with sticky sessions, health/drain-aware failover, and
// warm replica bring-up/handoff via the cache snapshot endpoints (see
// internal/router).
//
// Usage:
//
//	mctsrouter -replicas http://h1:8080,http://h2:8080 [-addr :8090]
//	           [-probe-interval 2s] [-probe-timeout 1s] [-fail-after 2]
//	           [-vnodes 64] [-max-sessions 4096]
//
// The router serves the full v1 API (forwarded to replicas) plus its own
// fleet surface:
//
//	GET  /v1/fleet        fleet membership and per-replica state
//	POST /v1/fleet/join   add a replica, warm-primed from a donor's cache
//	POST /v1/fleet/leave  planned removal: drain + ship the cache to survivors
//	GET  /healthz         router liveness (always 200)
//	GET  /readyz          200 iff at least one replica is ready
//
// Every proxied response carries X-Fleet-Replica naming the replica that
// answered.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (e.g. http://h1:8080,http://h2:8080)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "replica health/stats probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe round-trip bound")
	failAfter := flag.Int("fail-after", 2, "consecutive probe failures that eject a replica from the ring")
	vnodes := flag.Int("vnodes", 64, "consistent-hash virtual nodes per replica")
	maxSessions := flag.Int("max-sessions", 4096, "sticky session placements kept before LRU forgetting")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "mctsrouter: -replicas is required (comma-separated base URLs)")
		os.Exit(2)
	}

	rt, err := router.New(router.Config{
		Replicas:      urls,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     *failAfter,
		VNodes:        *vnodes,
		MaxSessions:   *maxSessions,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctsrouter:", err)
		os.Exit(2)
	}
	defer rt.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "mctsrouter: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "mctsrouter: affinity placement over %d replicas, serving on %s\n", len(urls), *addr)
	err = httpSrv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mctsrouter:", err)
		os.Exit(1)
	}
	stop()
	<-shutdownDone
}
