// Command mctsuid is the long-lived serving daemon: it keeps the evicting
// transposition cache and user sessions resident so repeat and incremental
// generation requests run against warm state instead of from scratch.
//
// Usage:
//
//	mctsuid [-addr :8080] [-replica-id ID] [-cache-entries 1048576]
//	        [-max-concurrent N] [-max-workers N] [-queue-depth N]
//	        [-queue-wait 10s] [-max-budget 1m] [-default-budget 0]
//	        [-max-sessions 1024] [-max-queries 500] [-shutdown-grace 10s]
//	        [-cache-snapshot PATH] [-snapshot-interval 5m]
//
// Endpoints (all JSON; see internal/server):
//
//	POST /v1/generate               anytime generation (SSE with "stream":true)
//	POST /v1/sessions/{id}/queries  append queries, warm-started regeneration
//	POST /v1/sessions/{id}/interact drive the session's widgets
//	POST /v1/sessions/{id}/import   load a persisted interface as a session
//	GET  /v1/sessions/{id}/export   persisted JSON or interactive HTML
//	GET  /v1/cache/export           warm-cache snapshot (binary)
//	POST /v1/cache/import           merge a snapshot into the cache
//	POST /v1/drain                  begin graceful drain (fleet handoff hook)
//	GET  /v1/stats                  observability
//	GET  /healthz, GET /readyz      liveness vs readiness
//
// With -cache-snapshot PATH the daemon loads the snapshot at boot (a
// missing or stale file logs a warning and starts cold — never fails the
// boot), rewrites it every -snapshot-interval (atomic temp-file+rename, so
// a crash mid-write keeps the previous snapshot), and persists a final
// snapshot on graceful shutdown. Restarts therefore serve warm from the
// first request. The listener comes up immediately and the snapshot loads
// in the background: /readyz answers 503 until the load finishes, so a
// fleet router (cmd/mctsrouter) keeps traffic off the replica while it is
// still cold without mistaking it for dead.
//
// -replica-id names the daemon in a fleet: the id appears in the /v1/stats
// replica section and as an X-Replica header on every response.
//
// SIGINT/SIGTERM drain gracefully: in-flight searches are cancelled and
// return their best-so-far interfaces (the daemon analogue of cmd/mctsui's
// Ctrl-C), then the listener shuts down within -shutdown-grace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	replicaID := flag.String("replica-id", "", "fleet identity reported on /v1/stats and as an X-Replica header (empty = single node)")
	cacheEntries := flag.Int("cache-entries", 0, "transposition cache bound in states (0 = ~1M default); the cache CLOCK-evicts once full")
	maxConcurrent := flag.Int("max-concurrent", 0, "max simultaneous searches (0 = GOMAXPROCS)")
	maxWorkers := flag.Int("max-workers", 0, "per-request parallelism cap: caps tree_workers (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max requests waiting for a search slot (0 = 4x max-concurrent); overflow gets 429")
	queueWait := flag.Duration("queue-wait", 10*time.Second, "max time a request waits for a slot before 503")
	maxBudget := flag.Duration("max-budget", time.Minute, "cap on per-request wall-clock search budgets")
	defaultBudget := flag.Duration("default-budget", 0, "budget when a request sets neither budget_ms nor iterations (0 = engine iteration default)")
	maxSessions := flag.Int("max-sessions", 0, "max resident sessions before LRU eviction (0 = 1024)")
	maxQueries := flag.Int("max-queries", 0, "max queries per session/request log (0 = 500)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
	snapshotPath := flag.String("cache-snapshot", "", "cache snapshot file: loaded at boot, rewritten periodically and on graceful shutdown (empty = no persistence)")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Minute, "how often to persist the cache snapshot (with -cache-snapshot)")
	flag.Parse()

	srv := server.New(server.Config{
		ReplicaID:     *replicaID,
		StartUnready:  *snapshotPath != "", // /readyz gates on the warm-boot load below
		CacheEntries:  *cacheEntries,
		MaxConcurrent: *maxConcurrent,
		MaxWorkers:    *maxWorkers,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		MaxBudget:     *maxBudget,
		DefaultBudget: *defaultBudget,
		MaxSessions:   *maxSessions,
		MaxQueries:    *maxQueries,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *snapshotPath != "" {
		// Warm boot runs behind the readiness gate: the listener comes up
		// immediately (health checks and eager clients are served), /readyz
		// answers 503 until the snapshot load finishes, and MarkReady flips
		// it — so a router never places traffic on a still-cold replica. A
		// missing, stale, or corrupt file is a cold start, never a failed
		// one — the snapshot codec fully verifies before merging, so a bad
		// file cannot poison the cache.
		go func() {
			defer srv.MarkReady()
			if n, err := srv.Cache().LoadSnapshot(*snapshotPath); err != nil {
				if !errors.Is(err, os.ErrNotExist) {
					fmt.Fprintf(os.Stderr, "mctsuid: starting cold, cache snapshot unusable: %v\n", err)
				}
			} else {
				fmt.Fprintf(os.Stderr, "mctsuid: warm start, %d cache entries from %s\n", n, *snapshotPath)
			}
		}()
		go persistLoop(ctx, srv, *snapshotPath, *snapshotInterval)
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "mctsuid: draining; in-flight searches return best-so-far")
		// Drain first so every admitted search is cancelled and finishes
		// writing its anytime response within the grace window; the HTTP
		// shutdown then waits for all remaining handlers (exports,
		// interactions) to complete.
		srv.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		_ = httpSrv.Shutdown(shutCtx)
		if *snapshotPath != "" {
			// Final persist after the drain: the warm set the next boot (or a
			// replacement replica) starts from.
			persist(srv, *snapshotPath)
		}
	}()

	fmt.Fprintf(os.Stderr, "mctsuid: serving on %s\n", *addr)
	err := httpSrv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mctsuid:", err)
		os.Exit(1)
	}
	// ListenAndServe returns as soon as the listener closes; wait for the
	// shutdown goroutine so handlers still writing are not killed mid-
	// response. stop() unblocks it when the listener failed on its own.
	stop()
	<-shutdownDone
}

// persistLoop rewrites the cache snapshot every interval until ctx is done;
// the shutdown goroutine writes the final one after the drain.
func persistLoop(ctx context.Context, srv *server.Server, path string, interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			persist(srv, path)
		}
	}
}

// persist writes one crash-safe snapshot (temp file + rename); failures are
// logged and retried at the next tick — the previous snapshot stays intact.
func persist(srv *server.Server, path string) {
	n, err := srv.Cache().SaveSnapshot(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mctsuid: cache snapshot failed: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mctsuid: cache snapshot: %d entries -> %s\n", n, path)
}
