// Package server implements the mctsuid serving subsystem: a long-lived
// HTTP daemon over the mctsui generation engine. It is the layer that makes
// the anytime API, the session semantics, and the evicting transposition
// cache earn their keep under sustained multi-user load:
//
//   - POST /v1/generate              — one-shot anytime generation with
//     per-request time/iteration budgets, strategy/worker selection, and
//     optional Server-Sent-Events progress streaming.
//   - POST /v1/sessions/{id}/queries — incremental refinement: append
//     queries to a stored session and regenerate warm-started from the
//     session's previous interface (core's WarmStart hook) against the
//     daemon-wide shared cache.
//   - POST /v1/sessions/{id}/interact — drive the session's widgets
//     server-side (set values, load a query) and read back the current SQL.
//   - POST /v1/sessions/{id}/import  — load a persisted interface (codec
//     JSON) as a session.
//   - GET  /v1/sessions/{id}/export  — the persisted interface as JSON, or
//     the self-contained interactive HTML page.
//   - GET  /v1/stats                 — cache/admission/replica observability.
//   - GET  /healthz, GET /readyz     — liveness vs readiness: /healthz is
//     200 for as long as the process can serve anything at all (draining
//     included — in-flight requests still complete), while /readyz is 503
//     until warm boot finishes and again once draining starts, so a fleet
//     router stops routing *new* work without declaring the process dead.
//   - POST /v1/drain                 — begin graceful drain remotely (the
//     HTTP analogue of SIGTERM), used by the fleet router's planned
//     warm-handoff removal.
//
// Every request and response body is defined in internal/api — the single
// source of truth for the v1 wire contract shared with the router, the
// typed client, and the load harness.
//
// All search endpoints pass through admission control: a fixed number of
// concurrent searches, a bounded wait queue in front of them (overflow is
// rejected immediately with 429, queue-wait timeouts with 503), and a
// graceful drain that cancels in-flight search contexts so every admitted
// request still returns its best-so-far interface — the HTTP analogue of
// cmd/mctsui's SIGINT behavior.
//
// Responses are deterministic: for a fixed request (queries, seed, budget
// in iterations, strategy, workers) the response body is byte-identical
// across processes and across cache configurations — eviction and sharing
// can change only how fast an answer is computed, never the answer. The
// integration soak test pins that property. The one opt-out is
// tree_workers > 1 (tree-parallel MCTS): those requests explicitly trade
// reproducibility for iterations/sec, and their responses vary with worker
// interleaving.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mctsui "repro"
	"repro/internal/api"
)

// maxIterations caps per-request iteration budgets.
const maxIterations = 100000

// Config tunes the daemon; zero values take the defaults below.
type Config struct {
	// ReplicaID is the daemon's fleet identity: it is reported in the
	// /v1/stats replica section and stamped on every response as an
	// X-Replica header, so a router (or a curious client) can see which
	// fleet member answered. Empty is fine for single-node deployments.
	ReplicaID string
	// StartUnready makes the daemon report not-ready on /readyz until
	// MarkReady is called. cmd/mctsuid sets it when a warm-boot snapshot
	// load is pending, so a fleet router never routes to a replica that is
	// still cold. All endpoints serve regardless — readiness is advisory
	// routing state, not an admission gate.
	StartUnready bool
	// CacheEntries bounds the daemon-wide shared transposition cache
	// (mctsui.NewCache; <= 0 means the engine default of ~a million states).
	// The cache evicts per-shard CLOCK victims once full, so any bound is
	// safe for an unbounded workload stream — smaller bounds only lower the
	// hit rate.
	CacheEntries int
	// Cache, when non-nil, is used instead of constructing one from
	// CacheEntries (tests inject pre-sized caches and read their stats).
	Cache *mctsui.Cache
	// MaxConcurrent bounds simultaneously running searches (default
	// GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a search slot (default
	// 4*MaxConcurrent). Requests beyond MaxConcurrent+QueueDepth are
	// rejected immediately with 429.
	QueueDepth int
	// QueueWait bounds how long an admitted request waits for a slot before
	// a 503 (default 10s).
	QueueWait time.Duration
	// MaxBudget caps per-request wall-clock search budgets (default 1m,
	// the paper's per-interface budget).
	MaxBudget time.Duration
	// DefaultBudget applies when a request sets neither a budget nor an
	// iteration count (default 0: the engine's default iteration budget).
	DefaultBudget time.Duration
	// MaxWorkers caps per-request tree_workers (default GOMAXPROCS).
	MaxWorkers int
	// MaxSessions bounds resident sessions; creating one beyond the bound
	// evicts the least-recently-used session (default 1024).
	MaxSessions int
	// MaxQueries bounds the query log length of a single request/session
	// (default 500).
	MaxQueries int
	// MaxSnapshotBytes bounds /v1/cache/import bodies (default
	// api.MaxSnapshotBytes). Other request bodies are bounded by
	// api.MaxBodyBytes.
	MaxSnapshotBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = time.Minute
	}
	if c.DefaultBudget > c.MaxBudget {
		c.DefaultBudget = c.MaxBudget // the cap binds defaulted requests too
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = 500
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = api.MaxSnapshotBytes
	}
	return c
}

// Server is the daemon state: the shared evicting cache, the admission
// gate, and the resident sessions. Construct with New, mount Handler, and
// call Drain then Shutdown on termination.
type Server struct {
	cfg   Config
	cache *mctsui.Cache

	sem    chan struct{} // MaxConcurrent search slots
	queued atomic.Int64  // requests holding or waiting for a slot

	// snapSem serializes cache snapshot transfers (one export or import at a
	// time, never holding a search slot): a second concurrent transfer gets
	// 409 instead of queueing behind a potentially large stream.
	snapSem chan struct{}

	baseCtx  context.Context // cancelled by Drain: searches return best-so-far
	drain    context.CancelFunc
	draining atomic.Bool
	// ready is the /readyz verdict's warm-boot half: false from New when
	// Config.StartUnready until MarkReady. Readiness is advisory (routers
	// consult it; admission does not), so a plain atomic with no admission
	// interlock suffices.
	ready atomic.Bool
	// admitMu serializes admission bookkeeping against Drain: admissions
	// hold the read side while checking the draining flag and registering
	// with inflight, Drain flips the flag under the write side — so once
	// Drain returns, no request can register late and Shutdown's
	// inflight.Wait races no Add.
	admitMu  sync.RWMutex
	inflight sync.WaitGroup

	requests atomic.Int64 // searches admitted
	rejected atomic.Int64 // requests refused by admission control

	// Per-outcome admission totals, the counters the load harness
	// (internal/load) turns into 429/503 rates. rejected above stays their
	// aggregate; clientGone is *not* part of it (a vanished client is not an
	// admission-control refusal).
	overflow429   atomic.Int64 // refused immediately: queue full
	queueTimeouts atomic.Int64 // 503: QueueWait expired before a slot freed
	drainRefusals atomic.Int64 // 503: refused because the daemon is draining
	clientGone    atomic.Int64 // client disconnected while waiting for a slot
	queueWaitUS   atomic.Int64 // cumulative microseconds spent waiting for a slot

	mu       sync.Mutex
	sessions map[string]*session
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := cfg.Cache
	if cache == nil {
		cache = mctsui.NewCache(cfg.CacheEntries)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		snapSem:  make(chan struct{}, 1),
		baseCtx:  ctx,
		drain:    cancel,
		sessions: make(map[string]*session),
	}
	s.ready.Store(!cfg.StartUnready)
	return s
}

// Cache exposes the daemon-wide shared transposition cache.
func (s *Server) Cache() *mctsui.Cache { return s.cache }

// MarkReady flips /readyz to ready (idempotent). cmd/mctsuid calls it once
// the warm-boot snapshot load finishes; a Server built without StartUnready
// is ready from construction.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Ready reports the /readyz verdict: warm boot complete and not draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.HandleFunc("POST /v1/sessions/{id}/queries", s.handleSessionQueries)
	mux.HandleFunc("POST /v1/sessions/{id}/interact", s.handleInteract)
	mux.HandleFunc("POST /v1/sessions/{id}/import", s.handleImport)
	mux.HandleFunc("GET /v1/sessions/{id}/export", s.handleExport)
	mux.HandleFunc("GET /v1/cache/export", s.handleCacheExport)
	mux.HandleFunc("POST /v1/cache/import", s.handleCacheImport)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.ReplicaID == "" {
		return mux
	}
	id := s.cfg.ReplicaID
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Replica", id)
		mux.ServeHTTP(w, r)
	})
}

// Drain moves the daemon into graceful shutdown: new search requests are
// refused with 503, and every in-flight search context is cancelled so the
// anytime engine returns its best-so-far interface and the response is
// still written. Call before http.Server.Shutdown.
func (s *Server) Drain() {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	s.drain()
}

// Shutdown drains (if not already draining) and waits for in-flight search
// requests to finish writing their responses, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- Admission control ------------------------------------------------------

var (
	errDraining     = errors.New("server draining")
	errQueueFull    = errors.New("request queue full")
	errQueueTimeout = errors.New("timed out waiting for a search slot")
)

// acquire admits one search: it takes a queue position (rejecting
// immediately when MaxConcurrent+QueueDepth requests are already in the
// system) and then waits up to QueueWait for a search slot. On success the
// request is registered with the shutdown WaitGroup *before* acquire
// returns, so Shutdown can never observe an admitted-but-uncounted
// request; release undoes both.
func (s *Server) acquire(ctx context.Context) error {
	if err := s.admit(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { s.queueWaitUS.Add(time.Since(start).Microseconds()) }()
	wait := time.NewTimer(s.cfg.QueueWait)
	defer wait.Stop()
	select {
	case s.sem <- struct{}{}:
		if s.draining.Load() {
			// The select can pick the slot arm even with baseCtx already
			// done; back out so no search starts after Drain.
			<-s.sem
			s.unadmit()
			s.rejected.Add(1)
			s.drainRefusals.Add(1)
			return errDraining
		}
		s.requests.Add(1)
		return nil
	case <-ctx.Done():
		// Client went away while queued: not an admission-control refusal,
		// so the rejected counter is not bumped.
		s.unadmit()
		s.clientGone.Add(1)
		return ctx.Err()
	case <-s.baseCtx.Done():
		s.unadmit()
		s.rejected.Add(1)
		s.drainRefusals.Add(1)
		return errDraining
	case <-wait.C:
		s.unadmit()
		s.rejected.Add(1)
		s.queueTimeouts.Add(1)
		return errQueueTimeout
	}
}

// admit performs the admission bookkeeping under the read side of admitMu
// (see the field comment for the Drain interlock).
func (s *Server) admit() error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		s.rejected.Add(1)
		s.drainRefusals.Add(1)
		return errDraining
	}
	if s.queued.Add(1) > int64(s.cfg.MaxConcurrent+s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		s.overflow429.Add(1)
		return errQueueFull
	}
	s.inflight.Add(1)
	return nil
}

func (s *Server) unadmit() {
	s.queued.Add(-1)
	s.inflight.Done()
}

func (s *Server) release() {
	<-s.sem
	s.queued.Add(-1)
	s.inflight.Done()
}

// admissionStatus maps an admission error to its HTTP status.
func admissionStatus(err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errQueueTimeout), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusServiceUnavailable
	}
}

// --- Handlers ---------------------------------------------------------------

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req api.GenerateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty query log"))
		return
	}
	if len(req.Queries) > s.cfg.MaxQueries {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("query log exceeds %d entries", s.cfg.MaxQueries))
		return
	}
	// Parameters resolve before any SSE headers are committed, so a bad
	// strategy/budget/screen is a plain 400 in streaming mode too (only
	// mid-search failures, like unparsable SQL, arrive as in-stream
	// "error" events).
	baseOpts, err := s.options(req.SearchParams)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	stream := req.Stream || acceptsSSE(r)
	s.runSearch(w, r, stream, func(ctx context.Context, progress func(mctsui.Progress)) (*api.GenerateResponse, int, error) {
		iface, err := mctsui.New(searchOpts(baseOpts, nil, nil, progress)...).Generate(ctx, req.Queries)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		resp, err := s.response(iface, "", len(req.Queries))
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		return resp, 0, nil
	})
}

// acceptsSSE reports whether the request opts into Server-Sent Events via
// its Accept header. Clients commonly send media ranges ("text/event-stream,
// */*") or parameters (";q=1"), so this matches the media type anywhere in
// the header rather than requiring exact equality.
func acceptsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// runSearch wraps a search-running endpoint in admission control, the drain
// context, and the plain-JSON vs SSE response split.
func (s *Server) runSearch(w http.ResponseWriter, r *http.Request, stream bool,
	work func(ctx context.Context, progress func(mctsui.Progress)) (*api.GenerateResponse, int, error)) {
	if err := s.acquire(r.Context()); err != nil {
		s.fail(w, admissionStatus(err), err)
		return
	}
	defer s.release()

	// The search context ends with the request — or with Drain, which turns
	// every in-flight search into an anytime best-so-far return.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	if stream {
		s.streamSearch(w, ctx, cancel, work)
		return
	}
	resp, status, err := work(ctx, nil)
	if err != nil {
		s.fail(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// options resolves SearchParams into engine options against the shared
// cache, clamping budgets to the server's limits. Callers append
// per-request extras (warm start, progress) with searchOpts.
func (s *Server) options(p api.SearchParams) ([]mctsui.Option, error) {
	// The initial-state quality reference never appears in a response, so
	// the daemon skips its per-request extraction pass.
	opts := []mctsui.Option{mctsui.WithCache(s.cache), mctsui.WithoutInitialCost()}
	if p.Strategy != "" {
		strat, err := mctsui.StrategyByName(p.Strategy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, mctsui.WithStrategy(strat))
	}
	if p.Iterations < 0 || p.BudgetMS < 0 {
		return nil, errors.New("negative search budget")
	}
	iters := min(p.Iterations, maxIterations)
	budget := time.Duration(p.BudgetMS) * time.Millisecond
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	if iters == 0 && budget == 0 && s.cfg.DefaultBudget > 0 {
		budget = s.cfg.DefaultBudget
	}
	if iters == 0 && budget == 0 {
		// No budget of either kind: the engine's deterministic iteration
		// default (a time budget alone would leave iterations unbounded
		// and make the default response timing-dependent).
		iters = mctsui.DefaultIterations
	}
	if budget == 0 {
		// MaxBudget is an unconditional wall-clock ceiling: an
		// iteration-budget (or engine-default) request cannot hold a search
		// slot longer than any explicit budget could. The search is
		// anytime, so hitting the ceiling still answers with best-so-far.
		budget = s.cfg.MaxBudget
	}
	if iters > 0 {
		opts = append(opts, mctsui.WithIterations(iters))
	}
	opts = append(opts, mctsui.WithTimeBudget(budget))
	if p.TreeWorkers < 0 {
		return nil, errors.New("negative worker count")
	}
	if p.TreeWorkers > 1 {
		opts = append(opts, mctsui.WithTreeWorkers(min(p.TreeWorkers, s.cfg.MaxWorkers)))
	}
	if p.Seed != 0 {
		opts = append(opts, mctsui.WithSeed(p.Seed))
	}
	if p.Screen != nil {
		if p.Screen.W <= 0 || p.Screen.H <= 0 {
			return nil, errors.New("screen dimensions must be positive")
		}
		opts = append(opts, mctsui.WithScreen(mctsui.Screen{W: p.Screen.W, H: p.Screen.H}))
	}
	return opts, nil
}

// searchOpts extends resolved base options with the per-search extras,
// without aliasing the base slice's backing array across searches.
func searchOpts(base []mctsui.Option, warm *mctsui.Interface, tree *mctsui.SearchTree, progress func(mctsui.Progress)) []mctsui.Option {
	opts := base[:len(base):len(base)]
	if warm != nil {
		opts = append(opts, mctsui.WithWarmStart(warm))
	}
	if tree != nil {
		opts = append(opts, mctsui.WithSearchTree(tree))
	}
	if progress != nil {
		opts = append(opts, mctsui.WithProgress(progress))
	}
	return opts
}

// response assembles the deterministic response body for an interface.
func (s *Server) response(iface *mctsui.Interface, session string, queryCount int) (*api.GenerateResponse, error) {
	data, err := iface.MarshalJSON()
	if err != nil {
		return nil, err
	}
	m, u := iface.CostBreakdown()
	w, h := iface.Bounds()
	st := iface.Stats()
	return &api.GenerateResponse{
		Session:    session,
		QueryCount: queryCount,
		Cost:       api.JSONCost(iface.Cost()),
		M:          m,
		U:          u,
		Valid:      iface.Valid(),
		Widgets:    iface.NumWidgets(),
		Bounds:     api.Size{W: w, H: h},
		ASCII:      iface.ASCII(),
		Interface:  data,
		Search: api.SearchStats{
			Strategy:    st.Strategy,
			Iterations:  st.Iterations,
			Evals:       st.Evals,
			TreeWorkers: st.TreeWorkers,
			Interrupted: st.Interrupted,
			WarmStarted: st.WarmStarted,
			ReRooted:    st.ReRooted,
		},
	}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp api.StatsResponse
	cs := s.cache.Stats()
	resp.Cache.Hits = cs.Hits
	resp.Cache.Misses = cs.Misses
	resp.Cache.Entries = cs.Entries
	resp.Cache.Evictions = cs.Evictions
	resp.Cache.Capacity = cs.Capacity
	resp.Cache.HitRate = cs.HitRate()
	if cs.Capacity > 0 {
		resp.Cache.Occupancy = float64(cs.Entries) / float64(cs.Capacity)
	}
	resp.Admission = api.AdmissionStats{
		Served:          s.requests.Load(),
		Overflow429:     s.overflow429.Load(),
		QueueTimeout503: s.queueTimeouts.Load(),
		Draining503:     s.drainRefusals.Load(),
		ClientGone:      s.clientGone.Load(),
		QueueWaitMS:     float64(s.queueWaitUS.Load()) / 1000,
	}
	s.mu.Lock()
	resp.Sessions = len(s.sessions)
	s.mu.Unlock()
	resp.Replica = api.ReplicaStats{
		ID:       s.cfg.ReplicaID,
		Ready:    s.Ready(),
		Draining: s.draining.Load(),
		Sessions: resp.Sessions,
	}
	resp.Inflight = len(s.sem)
	// s.queued counts every request in the system (waiting + running);
	// report only the waiters.
	resp.Queued = max(0, s.queued.Load()-int64(resp.Inflight))
	resp.Requests = s.requests.Load()
	resp.Rejected = s.rejected.Load()
	resp.Draining = s.draining.Load()
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealth is pure liveness: 200 for as long as the process is able to
// answer anything at all. Draining does not fail it — a draining daemon is
// alive and still completing in-flight work; routability is /readyz's job.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		Ready:    s.Ready(),
	})
}

// handleReady is readiness: 503 while the warm-boot snapshot load is still
// running (StartUnready before MarkReady) and again once draining begins,
// so a fleet router routes new work only to replicas that can accept it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := api.HealthResponse{Status: "ready", Draining: s.draining.Load(), Ready: s.Ready()}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
		resp.Status = "warming"
		if resp.Draining {
			resp.Status = "draining"
		}
	}
	s.writeJSON(w, status, resp)
}

// handleDrain begins graceful drain over HTTP (idempotent): the fleet
// router's planned-removal hook, equivalent to sending the daemon SIGTERM
// minus the process exit. After it returns, /readyz refuses, new searches
// get 503, in-flight searches return best-so-far, and /v1/cache/export
// still works — that asymmetry is what makes drain + export a warm handoff.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	s.writeJSON(w, http.StatusOK, api.DrainResponse{Draining: true})
}

// --- Helpers ----------------------------------------------------------------

// decode reads a JSON body with the size limit applied; false means the
// response has been written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	if dec.More() {
		s.fail(w, http.StatusBadRequest, errors.New("bad request body: trailing data after JSON document"))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, api.ErrorBody{Error: err.Error()})
}
