package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/router"
	"repro/internal/server"
)

// fleet is the in-process serving stack every workload reads through: two
// server replicas behind a router with the affinity policy, as in
// `mctsload -fleet 2`, on loopback listeners. The benchmark is the only
// client, over a transport capped at conns connections.
type fleet struct {
	servers []*server.Server
	https   []*http.Server
	rt      *router.Router
	urls    []string // replica base URLs
	cl      *client.Client
	tr      *http.Transport
	wg      sync.WaitGroup
	// hlog records replica handler spans; nil unless the run is traced.
	hlog *handlerLog
}

// replicaCacheEntries bounds each replica's shared cache, as mctsuid's
// -cache-entries does. Serving fills an unbounded cache at about 15 MB/s;
// the bound keeps the benchmark's memory small and makes the live heap
// level off once the caches are full, instead of growing with the number
// of appends a seed happens to schedule.
const replicaCacheEntries = 1 << 14

// handlerRec is one replica handler span, keyed for the request join by
// method, path and the per-path arrival ordinal.
type handlerRec struct {
	replica      int
	method, path string
	ord          int
	start, end   time.Time
}

// handlerLog is the timing middleware's in-memory record, shared by the
// replicas' handlers.
type handlerLog struct {
	mu   sync.Mutex
	ords map[string]int
	recs []handlerRec
}

func newHandlerLog() *handlerLog { return &handlerLog{ords: map[string]int{}} }

// wrap times every session request the replica's handler serves; other
// routes (the router's stats probes) pass through untimed.
func (l *handlerLog) wrap(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isSessionPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		l.mu.Lock()
		key := r.Method + " " + r.URL.Path
		ord := l.ords[key]
		l.ords[key] = ord + 1
		l.mu.Unlock()
		h.ServeHTTP(w, r)
		end := time.Now()
		l.mu.Lock()
		l.recs = append(l.recs, handlerRec{replica: replica, method: r.Method, path: r.URL.Path, ord: ord, start: start, end: end})
		l.mu.Unlock()
	})
}

// records returns a copy of the handler spans recorded so far.
func (l *handlerLog) records() []handlerRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]handlerRec(nil), l.recs...)
}

func isSessionPath(p string) bool {
	const prefix = "/v1/sessions/"
	return len(p) > len(prefix) && p[:len(prefix)] == prefix
}

// serve starts an HTTP server for h on a fresh loopback port.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet builds the replicas, the router and the client. traced wraps
// every replica handler in the timing middleware.
func startFleet(replicas, conns int, traced bool) (*fleet, error) {
	f := &fleet{}
	if traced {
		f.hlog = newHandlerLog()
	}
	for i := 0; i < replicas; i++ {
		s := server.New(server.Config{ReplicaID: fmt.Sprintf("r%d", i), CacheEntries: replicaCacheEntries})
		f.servers = append(f.servers, s)
		h := s.Handler()
		if f.hlog != nil {
			h = f.hlog.wrap(i, h)
		}
		u, err := f.serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, u)
	}
	rt, err := router.New(router.Config{Replicas: f.urls, Policy: "affinity"})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	f.rt = rt
	u, err := f.serve(rt.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	f.cl = client.New(u)
	f.cl.HTTPClient = &http.Client{Transport: f.tr, Timeout: 2 * time.Minute}
	f.cl.Retries = -1 // a failed request is a data point, never re-sent
	return f, nil
}

// close stops the client, the router, the HTTP servers and the replicas,
// and waits for every serving goroutine to return.
func (f *fleet) close() {
	if f.tr != nil {
		f.tr.CloseIdleConnections()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		_ = f.https[i].Shutdown(ctx) // in-flight requests finish or the deadline cuts them
	}
	for _, s := range f.servers {
		_ = s.Shutdown(ctx)
	}
	f.wg.Wait()
}

// admission sums the replicas' admission counters from /v1/stats.
func (f *fleet) admission(ctx context.Context) (served int64, waitMS float64, err error) {
	for _, u := range f.urls {
		cl := client.New(u)
		cl.Retries = -1
		st, err := cl.Stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		served += st.Admission.Served
		waitMS += st.Admission.QueueWaitMS
	}
	return served, waitMS, nil
}

// --- Client operations ------------------------------------------------------

// opKind classifies a request for the metrics.
type opKind uint8

const (
	opAppend   opKind = iota // session append: a search
	opGenerate               // one-shot generate: a search outside any session
	opImport                 // session import: publishes a generated interface
	opGet                    // interact get: a read
	opExport                 // export: a read
)

func (k opKind) isRead() bool { return k == opGet || k == opExport }

// request is one client operation and its measurements.
type request struct {
	kind    opKind
	session string
	// method and path identify the request for the handler join; ord is
	// its per-path dispatch ordinal.
	method, path string
	ord          int

	due      time.Time     // scheduled send time
	released time.Time     // released by the dispatcher (zero: at sent)
	sent     time.Time     // actual dispatch
	done     time.Time     // response received
	connWait time.Duration // GetConn to GotConn
	err      error

	resp   *api.GenerateResponse // append, generate, import
	inter  *api.InteractResponse // interact get
	export []byte                // export
}

// latency is the request's latency from its scheduled send time.
func (r *request) latency() time.Duration { return r.done.Sub(r.due) }

// late is how far behind schedule the dispatcher released the request.
// A serve-sessions request may then still wait for its session's previous
// append; that wait is part of its latency, not of the lateness.
func (r *request) late() time.Duration {
	if r.released.IsZero() {
		return r.sent.Sub(r.due)
	}
	return r.released.Sub(r.due)
}

// ordinals assigns per-path dispatch ordinals in dispatch order.
type ordinals struct {
	mu sync.Mutex
	m  map[string]int
}

func (o *ordinals) next(method, path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.m == nil {
		o.m = map[string]int{}
	}
	k := method + " " + path
	n := o.m[k]
	o.m[k] = n + 1
	return n
}

// do dispatches r through the router, filling in its timings and outcome.
// appendReq is the append or generate request, importData the import
// payload.
func (f *fleet) do(r *request, ords *ordinals, appendReq *api.SessionQueriesRequest, importData []byte) {
	base := "/v1/sessions/" + r.session
	switch r.kind {
	case opAppend:
		r.method, r.path = http.MethodPost, base+"/queries"
	case opGenerate:
		r.method, r.path = http.MethodPost, "/v1/generate"
	case opImport:
		r.method, r.path = http.MethodPost, base+"/import"
	case opGet:
		r.method, r.path = http.MethodPost, base+"/interact"
	case opExport:
		r.method, r.path = http.MethodGet, base+"/export"
	}
	var getConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { r.connWait = time.Since(getConn) },
	})
	r.ord = ords.next(r.method, r.path)
	r.sent = time.Now()
	switch r.kind {
	case opAppend:
		r.resp, r.err = f.cl.Append(ctx, r.session, appendReq)
	case opGenerate:
		r.resp, r.err = f.cl.Generate(ctx, &api.GenerateRequest{SearchParams: appendReq.SearchParams, Queries: appendReq.Queries})
	case opImport:
		r.resp, r.err = f.cl.ImportSession(ctx, r.session, importData, nil)
	case opGet:
		r.inter, r.err = f.cl.Interact(ctx, r.session, &api.InteractRequest{Op: api.OpGet})
	case opExport:
		r.export, r.err = f.cl.ExportSession(ctx, r.session)
	}
	r.done = time.Now()
}

// checkRead validates a read's response: interact get must render a query;
// export must load back into a valid interface that
// expresses every query of log.
func checkRead(r *request, log []string) error {
	if r.err != nil {
		return r.err
	}
	switch r.kind {
	case opGet:
		if r.inter.SQL == "" {
			return errors.New("interact get returned no query")
		}
	case opExport:
		iface, err := mctsui.LoadInterface(r.export, mctsui.Screen{})
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
		return checkInterface(iface, log)
	}
	return nil
}

// readP50MS is read_p50_ms over the successful reads among reqs: the
// median latency of each read kind, weighted by the analyst class's mix
// (interact 3, export 2). An export takes longer than an interact get, so
// a median over the pooled reads sits on the edge between the two kinds and
// jumps whenever a few reads of one kind run slow. It also returns the
// number of reads.
func readP50MS(reqs []*request) (float64, int) {
	var gets, exports []float64
	for _, r := range reqs {
		if r.err != nil {
			continue
		}
		switch r.kind {
		case opGet:
			gets = append(gets, ms(r.latency()))
		case opExport:
			exports = append(exports, ms(r.latency()))
		}
	}
	m := analystClass().Mix
	return (m.Interact*median(gets) + m.Export*median(exports)) / (m.Interact + m.Export), len(gets) + len(exports)
}

// checkInterface verifies that an interface is valid and can express every
// query of its log.
func checkInterface(iface *mctsui.Interface, log []string) error {
	if !iface.Valid() {
		return errors.New("invalid interface")
	}
	for i, q := range log {
		ok, err := iface.CanExpress(q)
		if err != nil {
			return fmt.Errorf("query %d: %w", i+1, err)
		}
		if !ok {
			return fmt.Errorf("interface cannot express query %d", i+1)
		}
	}
	return nil
}

// joined pairs a client request with the replica handler span that served
// it.
type joined struct {
	req *request
	h   handlerRec
}

// joinHandlers matches client requests to replica handler spans by method,
// path and per-path ordinal. The router forwards no custom header, so the
// ordinal stands in for a request ID; requests on one path dispatched
// concurrently can swap partners, which only matters for same-session
// reads.
func joinHandlers(reqs []*request, recs []handlerRec) []joined {
	type key struct {
		method, path string
		ord          int
	}
	byKey := make(map[key]handlerRec, len(recs))
	for _, h := range recs {
		byKey[key{h.method, h.path, h.ord}] = h
	}
	var out []joined
	for _, r := range reqs {
		if h, ok := byKey[key{r.method, r.path, r.ord}]; ok {
			out = append(out, joined{req: r, h: h})
		}
	}
	return out
}
