// Package router implements mctsrouter's fleet layer: a thin HTTP router
// in front of N mctsuid replicas that makes a fleet look like one daemon.
//
//   - Placement: requests are keyed ("s:<id>" for session traffic,
//     "q:<hash>" for stateless generates) and placed by consistent-hash
//     affinity: a key lands on the ring owner among the ready replicas, so
//     equal work revisits the replica holding its cache warmth. Session
//     placements are also sticky in the router's own table: session state
//     lives on one replica, so a session is re-placed only when its
//     replica leaves the ready set.
//   - Health: replicas are probed on an interval (one /v1/stats call
//     carries readiness, drain state, and load gauges); a replica that
//     fails FailAfter consecutive probes — or a single forwarded dial — is
//     ejected from the ring and its sessions re-placed on the survivors.
//     Failover is visible to clients only as created=true on the session's
//     next response (the fleet cannot resurrect a lost replica's state).
//   - Warm handoff: joining replicas are primed from the warmest donor's
//     /v1/cache/export before entering the ring, and a planned leave
//     drains the departing replica and ships its cache to the survivors —
//     so fleet membership changes never serve cold (internal/router/fleet.go).
//
// The router holds no search state of its own: every byte a client sees
// was produced by a replica, so determinism contracts (byte-identical
// responses for identical requests) survive the extra hop. All wire types
// are internal/api's; probes and handoff use the typed client.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
)

// Config tunes the router; zero values take the defaults below.
type Config struct {
	// Replicas are the initial fleet members' base URLs.
	Replicas []string
	// Policy names the placement policy. Placement is always affinity, so
	// the only accepted values are "" and "affinity".
	Policy string
	// ProbeInterval is the health/stats probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive probe failures that eject a replica
	// (default 2). A forwarded request's dial failure ejects immediately.
	FailAfter int
	// VNodes is the consistent-hash points per replica (default 64).
	VNodes int
	// MaxSessions bounds the sticky session-placement table; beyond it the
	// least-recently-routed placements are forgotten (default 4096 — a
	// forgotten placement re-places on the ring owner, which is the same
	// replica while the ready set is unchanged).
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	return c
}

// Replica is one fleet member as the router sees it. Probe-fed fields are
// guarded by the Router's mutex.
type Replica struct {
	// URL is the replica's base URL — its identity in the fleet.
	URL string

	cl *client.Client

	// Everything below is guarded by Router.mu.
	state        string // api.State*
	id           string // self-reported replica id
	sessions     int
	cacheEntries int64
	queued       int64
	inflight     int
	lastErr      string
	fails        int // consecutive probe failures
}

// stickyEntry records where a session lives and when it was last routed
// (LRU bound on the table).
type stickyEntry struct {
	url      string
	lastUsed time.Time
}

// Router is the fleet state. Construct with New, mount Handler, Close on
// shutdown.
type Router struct {
	cfg Config

	mu       sync.Mutex
	replicas map[string]*Replica
	ring     *ring
	sticky   map[string]stickyEntry

	// fleetMu serializes join/leave (each is a multi-step handoff; a second
	// concurrent mutation gets 409 instead of interleaving).
	fleetMu chan struct{}

	stopProbe context.CancelFunc
	probeWG   sync.WaitGroup
}

// New builds a Router over cfg.Replicas, probes them once synchronously
// (so the first request routes on real state), and starts the background
// probe loop. Close stops the loop.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Policy != "" && cfg.Policy != "affinity" {
		return nil, fmt.Errorf("unknown routing policy %q (placement is always affinity)", cfg.Policy)
	}
	rt := &Router{
		cfg:      cfg,
		replicas: make(map[string]*Replica),
		sticky:   make(map[string]stickyEntry),
		fleetMu:  make(chan struct{}, 1),
	}
	for _, u := range cfg.Replicas {
		u = normalizeURL(u)
		if u == "" {
			return nil, errors.New("empty replica URL")
		}
		rt.replicas[u] = rt.newReplica(u)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.ProbeTimeout)
	rt.ProbeOnce(ctx)
	cancel()
	probeCtx, stop := context.WithCancel(context.Background())
	rt.stopProbe = stop
	rt.probeWG.Add(1)
	go rt.probeLoop(probeCtx)
	return rt, nil
}

// Close stops the probe loop.
func (rt *Router) Close() {
	rt.stopProbe()
	rt.probeWG.Wait()
}

func (rt *Router) newReplica(u string) *Replica {
	cl := client.New(u)
	cl.Retries = -1 // the router's failover is the retry
	return &Replica{URL: u, cl: cl, state: api.StateUnready}
}

func normalizeURL(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// Handler returns the router's route table: the full v1 serving surface
// forwarded to replicas, plus the router-local fleet/health endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", rt.handleGenerate)
	mux.HandleFunc("POST /v1/sessions/{id}/queries", rt.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/interact", rt.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/import", rt.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/export", rt.handleSession)
	mux.HandleFunc("GET /v1/cache/export", rt.handleCacheExport)
	mux.HandleFunc("POST /v1/cache/import", rt.handleCacheImport)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	mux.HandleFunc("POST /v1/fleet/join", rt.handleFleetJoin)
	mux.HandleFunc("POST /v1/fleet/leave", rt.handleFleetLeave)
	return mux
}

// --- Probing ----------------------------------------------------------------

func (rt *Router) probeLoop(ctx context.Context) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			probeCtx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
			rt.ProbeOnce(probeCtx)
			cancel()
		}
	}
}

// ProbeOnce probes every fleet member concurrently and applies the results:
// one /v1/stats call per replica carries readiness, drain state, identity,
// and the load gauges. Exported so tests (and the fleet handlers) can
// refresh state synchronously instead of waiting out ProbeInterval.
func (rt *Router) ProbeOnce(ctx context.Context) {
	reps := rt.members()
	results := make([]*api.StatsResponse, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			results[i], errs[i] = rep.cl.Stats(ctx)
		}(i, rep)
	}
	wg.Wait()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	changed := false
	for i, rep := range reps {
		if cur, ok := rt.replicas[rep.URL]; !ok || cur != rep {
			continue // left the fleet while the probe was in flight
		}
		prev := rep.state
		if errs[i] != nil {
			rep.fails++
			rep.lastErr = errs[i].Error()
			if rep.fails >= rt.cfg.FailAfter {
				rep.state = api.StateDead
			}
		} else {
			st := results[i]
			rep.fails = 0
			rep.lastErr = ""
			rep.id = st.Replica.ID
			rep.sessions = st.Replica.Sessions
			rep.cacheEntries = st.Cache.Entries
			rep.queued = st.Queued
			rep.inflight = st.Inflight
			switch {
			case st.Draining:
				rep.state = api.StateDraining
			case !st.Replica.Ready:
				rep.state = api.StateUnready
			default:
				rep.state = api.StateReady
			}
		}
		if rep.state != prev {
			changed = true
			if rep.state != api.StateReady {
				rt.dropPlacementsLocked(rep.URL)
			}
		}
	}
	if changed {
		rt.rebuildRingLocked()
	}
}

// markDead ejects a replica after a forwarded request's dial failure — the
// fastest failure signal there is, so it does not wait for FailAfter probes.
func (rt *Router) markDead(rep *Replica, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if cur, ok := rt.replicas[rep.URL]; !ok || cur != rep {
		return
	}
	rep.state = api.StateDead
	rep.fails = max(rep.fails, rt.cfg.FailAfter)
	rep.lastErr = err.Error()
	rt.dropPlacementsLocked(rep.URL)
	rt.rebuildRingLocked()
}

// dropPlacementsLocked forgets every sticky placement on url; those
// sessions re-place on the ring owner on their next request.
func (rt *Router) dropPlacementsLocked(url string) {
	for id, e := range rt.sticky {
		if e.url == url {
			delete(rt.sticky, id)
		}
	}
}

// rebuildRingLocked rebuilds the consistent-hash ring over the ready set.
func (rt *Router) rebuildRingLocked() {
	ready := rt.readyReplicasLocked()
	urls := make([]string, len(ready))
	for i, rep := range ready {
		urls[i] = rep.URL
	}
	rt.ring = buildRing(urls, rt.cfg.VNodes)
}

// members snapshots the fleet, sorted by URL.
func (rt *Router) members() []*Replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.membersLocked()
}

func (rt *Router) membersLocked() []*Replica {
	reps := make([]*Replica, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].URL < reps[j].URL })
	return reps
}

// readyLocked returns the member at url if it is ready, else nil.
func (rt *Router) readyLocked(url string) *Replica {
	if rep := rt.replicas[url]; rep != nil && rep.state == api.StateReady {
		return rep
	}
	return nil
}

// readyReplicasLocked returns the ready members, sorted by URL.
func (rt *Router) readyReplicasLocked() []*Replica {
	ready := make([]*Replica, 0, len(rt.replicas))
	for _, rep := range rt.membersLocked() {
		if rep.state == api.StateReady {
			ready = append(ready, rep)
		}
	}
	return ready
}

// --- Placement --------------------------------------------------------------

var errNoReplicas = errors.New("no ready replicas in the fleet")

// place picks the replica for a request. Session keys consult the sticky
// table first — a live placement wins over the ring — and record their
// placement; stateless keys go straight to the ring owner.
func (rt *Router) place(key, session string) (*Replica, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if session != "" {
		if e, ok := rt.sticky[session]; ok {
			if rep := rt.readyLocked(e.url); rep != nil {
				rt.sticky[session] = stickyEntry{url: e.url, lastUsed: time.Now()}
				return rep, nil
			}
			delete(rt.sticky, session) // placed on a replica that is gone: re-place below
		}
	}
	// Consistent-hash affinity: a key keeps its replica for as long as that
	// replica stays ready, so session state and the cache warmth a key builds
	// up are revisited instead of re-derived; with one replica owning a key,
	// fleet results match a single-daemon run exactly. The ring is rebuilt
	// under mu whenever the ready set changes, so its owner is always ready
	// and an empty ring means no replica is.
	rep := rt.readyLocked(rt.ring.lookup(key))
	if rep == nil {
		return nil, errNoReplicas
	}
	if session != "" {
		rt.sticky[session] = stickyEntry{url: rep.URL, lastUsed: time.Now()}
		rt.evictStickyLocked()
	}
	return rep, nil
}

// evictStickyLocked bounds the sticky table: beyond MaxSessions the
// least-recently-routed placements are forgotten (collect-then-sort so the
// choice never depends on map order).
func (rt *Router) evictStickyLocked() {
	over := len(rt.sticky) - rt.cfg.MaxSessions
	if over <= 0 {
		return
	}
	type aged struct {
		id string
		at time.Time
	}
	entries := make([]aged, 0, len(rt.sticky))
	for id, e := range rt.sticky {
		entries = append(entries, aged{id: id, at: e.lastUsed})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].at.Equal(entries[j].at) {
			return entries[i].at.Before(entries[j].at)
		}
		return entries[i].id < entries[j].id
	})
	for _, e := range entries[:over] {
		delete(rt.sticky, e.id)
	}
}

// --- Forwarding -------------------------------------------------------------

func (rt *Router) handleGenerate(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	// Stateless generates key on content: identical request bodies revisit
	// the replica that already holds their cache warmth.
	key := "q:" + strconv.FormatUint(hash64(string(body)), 16)
	rt.forward(w, r, key, "", body)
}

func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		rt.fail(w, http.StatusBadRequest, errors.New("empty session id"))
		return
	}
	body, ok := rt.readBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	rt.forward(w, r, "s:"+id, id, body)
}

// readBody buffers the request body (so a dial failure can replay it
// against another replica); false means the response has been written.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit))
		} else {
			rt.fail(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		}
		return nil, false
	}
	return body, true
}

// forward places and proxies one request, failing over on dial errors: a
// replica that cannot even be dialed never saw the request, so replaying
// the buffered body on the next placement is safe for any method. Once a
// byte of response has been received, failures propagate to the client
// instead (the replica may have acted).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key, session string, body []byte) {
	// Every live member is a potential placement; +1 covers a join racing in.
	attempts := 1 + len(rt.members())
	var lastErr error
	for i := 0; i < attempts; i++ {
		rep, err := rt.place(key, session)
		if err != nil {
			rt.fail(w, http.StatusServiceUnavailable, err)
			return
		}
		err = rt.tryForward(w, r, rep, body)
		if err == nil {
			return
		}
		if !dialFailure(err) || r.Context().Err() != nil {
			rt.fail(w, http.StatusBadGateway, fmt.Errorf("forwarding to %s: %w", rep.URL, err))
			return
		}
		rt.markDead(rep, err)
		lastErr = err
	}
	rt.fail(w, http.StatusBadGateway, fmt.Errorf("no replica accepted the request: %w", lastErr))
}

// dialFailure reports that err proves the request never reached a replica.
func dialFailure(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// tryForward proxies one attempt to rep, relaying the response (an SSE
// stream flushed per chunk, so its frames pass through live). A non-nil
// return means nothing was written to the client.
func (rt *Router) tryForward(w http.ResponseWriter, r *http.Request, rep *Replica, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.URL+r.URL.RequestURI(), rd)
	if err != nil {
		return err
	}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	copyResponse(w, resp, rep.URL)
	return nil
}

// copyBufs holds the buffers responses are relayed through.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// writerOnly hides a ResponseWriter's ReadFrom, so io.CopyBuffer copies
// through the pooled buffer instead of allocating its own.
type writerOnly struct{ io.Writer }

// copyResponse relays an upstream response, stamping which replica answered.
// An SSE stream is flushed per chunk (progress must not sit in a proxy
// buffer). Any other response keeps the replica's Content-Length and, when
// it fits the copy buffer, is read whole and written in one call.
func copyResponse(w http.ResponseWriter, resp *http.Response, replicaURL string) {
	for _, h := range []string{"Content-Type", "Content-Disposition", "Cache-Control", "X-Replica"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Replica", replicaURL)
	stream := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	if !stream && resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	if stream {
		flusher, _ := w.(http.Flusher)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return // client gone; the upstream context cancels via r.Context
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if err != nil {
				return
			}
		}
	}
	if n := resp.ContentLength; n >= 0 && n <= int64(len(buf)) {
		m, _ := io.ReadFull(resp.Body, buf[:n])
		_, _ = w.Write(buf[:m])
		return
	}
	_, _ = io.CopyBuffer(writerOnly{w}, resp.Body, buf)
}

// --- Cache transfer across the fleet ----------------------------------------

// handleCacheExport serves the warmest ready replica's snapshot: the best
// single capture of the fleet's accumulated warmth.
func (rt *Router) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	rep := rt.warmestReady()
	if rep == nil {
		rt.fail(w, http.StatusServiceUnavailable, errNoReplicas)
		return
	}
	if err := rt.tryForward(w, r, rep, nil); err != nil {
		rt.fail(w, http.StatusBadGateway, fmt.Errorf("exporting from %s: %w", rep.URL, err))
	}
}

// handleCacheImport warms the whole fleet from one snapshot: the body is
// buffered once and imported into every ready replica (first-write-wins
// cache semantics make re-imports idempotent and merge-safe). The reported
// entry count is the first recipient's.
func (rt *Router) handleCacheImport(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, api.MaxSnapshotBytes)
	if !ok {
		return
	}
	rt.mu.Lock()
	ready := rt.readyReplicasLocked()
	rt.mu.Unlock()
	if len(ready) == 0 {
		rt.fail(w, http.StatusServiceUnavailable, errNoReplicas)
		return
	}
	var out api.CacheImportResponse
	for i, rep := range ready {
		resp, err := rep.cl.ImportCache(r.Context(), bytes.NewReader(body))
		if err != nil {
			var se *client.StatusError
			if errors.As(err, &se) {
				rt.fail(w, se.Code, fmt.Errorf("import into %s: %s", rep.URL, se.Message))
			} else {
				rt.fail(w, http.StatusBadGateway, fmt.Errorf("import into %s: %w", rep.URL, err))
			}
			return
		}
		if i == 0 {
			out = *resp
		}
	}
	rt.writeJSON(w, http.StatusOK, out)
}

// warmestReady picks the ready replica with the most cache entries (ties by
// URL order) — export's source and join priming's default donor.
func (rt *Router) warmestReady() *Replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var best *Replica
	for _, rep := range rt.membersLocked() {
		if rep.state != api.StateReady {
			continue
		}
		if best == nil || rep.cacheEntries > best.cacheEntries {
			best = rep
		}
	}
	return best
}

// --- Observability ----------------------------------------------------------

// handleStats reports the fleet-wide aggregate in a single replica's shape
// (counters summed, ratios recomputed) plus the per-replica breakdown, by
// fanning out live /v1/stats calls — a load harness pointed at the router
// scrapes it exactly as it would one daemon.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	reps := rt.members()
	results := make([]*api.StatsResponse, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			results[i], _ = rep.cl.Stats(r.Context())
		}(i, rep)
	}
	wg.Wait()

	var agg api.FleetStatsResponse
	live := 0
	for _, st := range results {
		if st == nil {
			continue
		}
		live++
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.Cache.Entries += st.Cache.Entries
		agg.Cache.Evictions += st.Cache.Evictions
		agg.Cache.Capacity += st.Cache.Capacity
		agg.Admission.Served += st.Admission.Served
		agg.Admission.Overflow429 += st.Admission.Overflow429
		agg.Admission.QueueTimeout503 += st.Admission.QueueTimeout503
		agg.Admission.Draining503 += st.Admission.Draining503
		agg.Admission.ClientGone += st.Admission.ClientGone
		agg.Admission.QueueWaitMS += st.Admission.QueueWaitMS
		agg.Sessions += st.Sessions
		agg.Inflight += st.Inflight
		agg.Queued += st.Queued
		agg.Requests += st.Requests
		agg.Rejected += st.Rejected
	}
	if lookups := agg.Cache.Hits + agg.Cache.Misses; lookups > 0 {
		agg.Cache.HitRate = float64(agg.Cache.Hits) / float64(lookups)
	}
	if agg.Cache.Capacity > 0 {
		agg.Cache.Occupancy = float64(agg.Cache.Entries) / float64(agg.Cache.Capacity)
	}
	fleet := rt.fleetReplicas()
	readyCount := 0
	for _, fr := range fleet {
		if fr.State == api.StateReady {
			readyCount++
		}
	}
	agg.Replica = api.ReplicaStats{ID: "mctsrouter", Ready: readyCount > 0, Sessions: agg.Sessions}
	agg.Draining = live > 0 && readyCount == 0
	agg.Replica.Draining = agg.Draining
	agg.Fleet = fleet
	rt.writeJSON(w, http.StatusOK, agg)
}

// fleetReplicas snapshots every member's status, sorted by URL.
func (rt *Router) fleetReplicas() []api.FleetReplica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]api.FleetReplica, 0, len(rt.replicas))
	for _, rep := range rt.membersLocked() {
		out = append(out, api.FleetReplica{
			URL:          rep.URL,
			ID:           rep.id,
			State:        rep.state,
			Sessions:     rep.sessions,
			CacheEntries: rep.cacheEntries,
			Queued:       rep.queued,
			Inflight:     rep.inflight,
			LastError:    rep.lastErr,
		})
	}
	return out
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	fleet := rt.fleetReplicas()
	ready := 0
	for _, fr := range fleet {
		if fr.State == api.StateReady {
			ready++
		}
	}
	rt.mu.Lock()
	stickyCount := len(rt.sticky)
	rt.mu.Unlock()
	rt.writeJSON(w, http.StatusOK, api.FleetResponse{
		Policy:         "affinity",
		Replicas:       fleet,
		ReadyReplicas:  ready,
		StickySessions: stickyCount,
	})
}

// handleHealth is the router's own liveness: the router can always answer.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Ready: rt.readyCount() > 0})
}

// handleReady is routability: 200 iff at least one replica is ready.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if rt.readyCount() == 0 {
		rt.writeJSON(w, http.StatusServiceUnavailable, api.HealthResponse{Status: "no ready replicas"})
		return
	}
	rt.writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ready", Ready: true})
}

func (rt *Router) readyCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, rep := range rt.replicas {
		if rep.state == api.StateReady {
			n++
		}
	}
	return n
}

// --- Helpers ----------------------------------------------------------------

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (rt *Router) fail(w http.ResponseWriter, status int, err error) {
	rt.writeJSON(w, status, api.ErrorBody{Error: err.Error()})
}
