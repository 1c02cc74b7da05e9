package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/sqlparser"
)

// figure1 is the paper's three-query log — small enough that every search
// in these tests takes milliseconds.
var figure1 = []string{
	"SELECT Sales FROM sales WHERE cty = USA",
	"SELECT Costs FROM sales WHERE cty = EUR",
	"SELECT Costs FROM sales",
}

// fastParams keep searches deterministic and fast.
var fastParams = api.SearchParams{Iterations: 8, Seed: 7}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testClient returns the typed client for a test server with retries off —
// in a test, a refused connection is a bug to surface, not to paper over.
func testClient(base string) *client.Client {
	cl := client.New(base)
	cl.Retries = -1
	return cl
}

// clientFor splits a full test URL into the typed client for its server and
// the request path — the bridge that lets the (url, body) helper call sites
// below ride the shared client instead of hand-rolled net/http.
func clientFor(t *testing.T, rawurl string) (*client.Client, string) {
	t.Helper()
	u, err := url.Parse(rawurl)
	if err != nil {
		t.Errorf("parse %s: %v", rawurl, err)
		return nil, ""
	}
	path := u.Path
	if u.RawQuery != "" {
		path += "?" + u.RawQuery
	}
	return testClient(u.Scheme + "://" + u.Host), path
}

// isStatus reports whether err is a *client.StatusError with the given code.
func isStatus(err error, code int) bool {
	var se *client.StatusError
	return errors.As(err, &se) && se.Code == code
}

// post sends a JSON body and returns (status, response bytes). Transport
// errors report via t.Errorf and return status 0 — never FailNow, since
// several tests call these helpers from spawned goroutines (FailNow must
// only run on the test goroutine, and a Goexit mid-helper would strand the
// channel sends those tests wait on).
func post(t *testing.T, rawurl string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Errorf("marshal request: %v", err)
		return 0, nil
	}
	cl, path := clientFor(t, rawurl)
	if cl == nil {
		return 0, nil
	}
	status, out, err := cl.PostJSON(context.Background(), path, data)
	if err != nil {
		t.Errorf("POST %s: %v", rawurl, err)
		return 0, nil
	}
	return status, out
}

func get(t *testing.T, rawurl string) (int, []byte) {
	t.Helper()
	cl, path := clientFor(t, rawurl)
	if cl == nil {
		return 0, nil
	}
	status, out, err := cl.Get(context.Background(), path)
	if err != nil {
		t.Errorf("GET %s: %v", rawurl, err)
		return 0, nil
	}
	return status, out
}

// compactJSON strips insignificant whitespace: the codec emits indented
// JSON, but embedding it as json.RawMessage in a response compacts it.
func compactJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	return buf.Bytes()
}

func decodeGenerate(t *testing.T, data []byte) api.GenerateResponse {
	t.Helper()
	var resp api.GenerateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad generate response %s: %v", data, err)
	}
	return resp
}

// offline runs the same generation the server performs for the given
// params, with a fresh private cache — the reference the daemon's responses
// must match byte for byte.
func offline(t *testing.T, queries []string, p api.SearchParams, warm *mctsui.Interface) *mctsui.Interface {
	t.Helper()
	opts := []mctsui.Option{}
	if p.Iterations > 0 {
		opts = append(opts, mctsui.WithIterations(p.Iterations))
	}
	if p.Seed != 0 {
		opts = append(opts, mctsui.WithSeed(p.Seed))
	}
	if p.Strategy != "" {
		strat, err := mctsui.StrategyByName(p.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, mctsui.WithStrategy(strat))
	}
	if warm != nil {
		opts = append(opts, mctsui.WithWarmStart(warm))
	}
	iface, err := mctsui.New(opts...).Generate(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

func TestGenerateDeterministicAndMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.GenerateRequest{SearchParams: fastParams, Queries: figure1}

	status, body1 := post(t, ts.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body1)
	}
	status, body2 := post(t, ts.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("identical requests returned different bodies")
	}

	resp := decodeGenerate(t, body1)
	if !resp.Valid {
		t.Fatalf("invalid interface: %s", body1)
	}
	ref := offline(t, figure1, fastParams, nil)
	want, err := ref.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compactJSON(t, resp.Interface), compactJSON(t, want)) {
		t.Errorf("served interface differs from offline Generate:\n got %s\nwant %s", resp.Interface, want)
	}
	if resp.Cost != ref.Cost() {
		t.Errorf("served cost %v, offline %v", resp.Cost, ref.Cost())
	}
}

// TestGenerateTreeWorkers: a tree-parallel request is served and its
// goroutine fan-out is capped by admission control — tree_workers never
// exceeds MaxWorkers.
func TestGenerateTreeWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorkers: 4})

	p := fastParams
	p.TreeWorkers = 8
	status, body := post(t, ts.URL+"/v1/generate", api.GenerateRequest{SearchParams: p, Queries: figure1})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := decodeGenerate(t, body)
	if !resp.Valid {
		t.Fatalf("invalid interface: %s", body)
	}
	if resp.Search.TreeWorkers != 4 {
		t.Errorf("tree_workers = %d, want the MaxWorkers cap of 4", resp.Search.TreeWorkers)
	}
}

func TestGenerateRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQueries: 2})
	for name, req := range map[string]api.GenerateRequest{
		"empty log":     {SearchParams: fastParams},
		"oversized log": {SearchParams: fastParams, Queries: []string{"select a from t", "select b from t", "select c from t"}},
		"bad sql":       {SearchParams: fastParams, Queries: []string{"not sql at all ((("}},
		"bad strategy":  {SearchParams: api.SearchParams{Strategy: "warp"}, Queries: figure1},
		"bad budget":    {SearchParams: api.SearchParams{Iterations: -4}, Queries: figure1},
		"bad screen":    {SearchParams: api.SearchParams{Screen: &api.Size{W: -1, H: 5}}, Queries: figure1},
		"bad workers":   {SearchParams: api.SearchParams{TreeWorkers: -2}, Queries: figure1},
	} {
		if status, body := post(t, ts.URL+"/v1/generate", req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, body)
		}
	}
	// The strict decoder refuses unknown fields, "workers" among them.
	retired := json.RawMessage(`{"queries":["select a from t"],"iterations":2,"workers":2}`)
	if status, body := post(t, ts.URL+"/v1/generate", retired); status != http.StatusBadRequest ||
		!strings.Contains(string(body), `unknown field \"workers\"`) {
		t.Errorf("request with \"workers\": status %d (%s), want 400 naming the field", status, body)
	}
	if status, _ := post(t, ts.URL+"/v1/sessions/nope/interact", api.InteractRequest{Op: "get"}); status != http.StatusNotFound {
		t.Errorf("interact on unknown session: status %d, want 404", status)
	}
	if status, _ := get(t, ts.URL+"/v1/sessions/nope/export"); status != http.StatusNotFound {
		t.Errorf("export of unknown session: status %d, want 404", status)
	}

	// A failed session create must leave no resident state: export still
	// 404s (not 409) and no MaxSessions slot is consumed.
	if status, _ := post(t, ts.URL+"/v1/sessions/phantom/queries",
		api.SessionQueriesRequest{SearchParams: fastParams, Queries: []string{"not sql ((("}}); status != http.StatusBadRequest {
		t.Errorf("bad create: status %d, want 400", status)
	}
	if status, _ := get(t, ts.URL+"/v1/sessions/phantom/export"); status != http.StatusNotFound {
		t.Errorf("failed create left a session behind: export status %d, want 404", status)
	}
}

// TestSessionRoundTrip is the integration satellite: generate → append
// queries (warm-started) → interact → export, asserting the exported
// interface equals an offline Generate+WarmStart replay over the same query
// log and that persist→load (export→import) preserves widget semantics.
func TestSessionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL + "/v1/sessions/alpha"

	// 1. Create the session with the first two queries.
	status, body := post(t, base+"/queries", api.SessionQueriesRequest{SearchParams: fastParams, Queries: figure1[:2]})
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}
	first := decodeGenerate(t, body)
	if first.Session != "alpha" || first.QueryCount != 2 {
		t.Fatalf("create: session %q count %d", first.Session, first.QueryCount)
	}
	if !first.Created {
		t.Error("first append did not report created")
	}

	// 2. Append the third query: regeneration warm-starts from the previous
	// interface via the shared cache + core WarmStart hook.
	status, body = post(t, base+"/queries", api.SessionQueriesRequest{SearchParams: fastParams, Queries: figure1[2:]})
	if status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, body)
	}
	second := decodeGenerate(t, body)
	if second.QueryCount != 3 {
		t.Fatalf("append: query count %d, want 3", second.QueryCount)
	}
	if second.Created {
		t.Error("append to a live session reported created (state was silently reset)")
	}

	// Offline replay over the same query log must match byte for byte.
	prev := offline(t, figure1[:2], fastParams, nil)
	ref := offline(t, figure1, fastParams, prev)
	want, err := ref.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compactJSON(t, second.Interface), compactJSON(t, want)) {
		t.Errorf("incremental interface differs from offline warm-started replay:\n got %s\nwant %s",
			second.Interface, want)
	}
	if second.Search.WarmStarted != ref.Stats().WarmStarted {
		t.Errorf("warm_started %v, offline %v", second.Search.WarmStarted, ref.Stats().WarmStarted)
	}

	// 3. Interact: load a log query, read the current SQL back.
	wantSQL := sqlparser.Render(sqlparser.MustParse(figure1[1]))
	status, body = post(t, base+"/interact", api.InteractRequest{Op: "load_query", Query: figure1[1]})
	if status != http.StatusOK {
		t.Fatalf("interact: status %d: %s", status, body)
	}
	var inter api.InteractResponse
	if err := json.Unmarshal(body, &inter); err != nil {
		t.Fatal(err)
	}
	if inter.SQL != wantSQL {
		t.Errorf("interact SQL %q, want %q", inter.SQL, wantSQL)
	}
	if len(inter.Widgets) == 0 || len(inter.Widgets) != ref.NumWidgets() {
		t.Errorf("widgets %d, want %d", len(inter.Widgets), ref.NumWidgets())
	}

	// 4. Export: JSON equals the persisted form from step 2; HTML renders.
	status, exported := get(t, base+"/export?format=json")
	if status != http.StatusOK {
		t.Fatalf("export: status %d: %s", status, exported)
	}
	if !bytes.Equal(compactJSON(t, exported), compactJSON(t, second.Interface)) {
		t.Error("export differs from the interface served at generation time")
	}
	status, page := get(t, base+"/export?format=html")
	if status != http.StatusOK || !strings.Contains(string(page), "<html") {
		t.Errorf("html export: status %d, len %d", status, len(page))
	}

	// 5. Persist→load: import the export as a new session; the same
	// interaction must produce the same SQL (widget semantics preserved).
	// This leg runs through the typed client's session methods end to end.
	cl := testClient(ts.URL)
	imp, err := cl.ImportSession(context.Background(), "beta", exported, nil)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if imp.QueryCount != 3 {
		t.Errorf("import query count %d, want 3", imp.QueryCount)
	}
	interB2, err := cl.Interact(context.Background(), "beta", &api.InteractRequest{Op: api.OpLoadQuery, Query: figure1[1]})
	if err != nil {
		t.Fatalf("interact on imported session: %v", err)
	}
	interB := *interB2
	if interB.SQL != inter.SQL {
		t.Errorf("imported session SQL %q, original %q", interB.SQL, inter.SQL)
	}
	if len(interB.Widgets) != len(inter.Widgets) {
		t.Errorf("imported session has %d widgets, original %d", len(interB.Widgets), len(inter.Widgets))
	}
	for i := range interB.Widgets {
		if interB.Widgets[i].Value != inter.Widgets[i].Value || interB.Widgets[i].Type != inter.Widgets[i].Type {
			t.Errorf("widget %d diverged after persist→load: %+v vs %+v", i, interB.Widgets[i], inter.Widgets[i])
		}
	}

	// 6. Malformed import errors (the fuzz wall's contract), never panics.
	if _, err := cl.ImportSession(context.Background(), "gamma",
		[]byte(`{"version":1,"difftree":{"kind":"WAT"}}`), nil); !isStatus(err, http.StatusUnprocessableEntity) {
		t.Errorf("malformed import: %v, want 422", err)
	}
}

func TestInteractOps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL + "/v1/sessions/ops"
	if status, body := post(t, base+"/queries", api.SessionQueriesRequest{SearchParams: fastParams, Queries: figure1}); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	status, body := post(t, base+"/interact", api.InteractRequest{Op: "get"})
	if status != http.StatusOK {
		t.Fatalf("get: %d %s", status, body)
	}
	var snap api.InteractResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Widgets) == 0 {
		t.Fatal("no widgets")
	}
	// Flip every widget through each legal value; the SQL endpoint must
	// stay well-formed (parse errors would 422).
	for i, wd := range snap.Widgets {
		values := len(wd.Options)
		if values == 0 {
			values = 2 // toggles/adders: exercise 0 and 1
		}
		for v := 0; v < values; v++ {
			status, body = post(t, base+"/interact", api.InteractRequest{Op: "set", Widget: i, Value: v})
			if status != http.StatusOK {
				t.Fatalf("set widget %d=%d: %d %s", i, v, status, body)
			}
		}
	}
	if status, body = post(t, base+"/interact", api.InteractRequest{Op: "set", Widget: 99, Value: 0}); status != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range widget: %d %s", status, body)
	}
	if status, body = post(t, base+"/interact", api.InteractRequest{Op: "warp"}); status != http.StatusBadRequest {
		t.Errorf("unknown op: %d %s", status, body)
	}
}

func TestAdmissionControl(t *testing.T) {
	// QueueWait is generous so the queued request cannot time out (freeing
	// its queue position) before the overflow probe runs; Drain below ends
	// the wait long before the timer would.
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueWait:     5 * time.Second,
	})
	// Occupy the only slot with a long-budget search.
	slow := api.GenerateRequest{SearchParams: api.SearchParams{BudgetMS: 3000, Seed: 1}, Queries: figure1}
	done := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL+"/v1/generate", slow)
		done <- status
	}()
	waitFor(t, func() bool { return len(s.sem) == 1 })

	// Second request fills the queue and times out waiting: 503. Launch it
	// before the overflow probes so the queue is actually full.
	queued := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL+"/v1/generate", slow)
		queued <- status
	}()
	waitFor(t, func() bool { return s.queued.Load() >= 2 })

	// Overflow beyond MaxConcurrent+QueueDepth is rejected immediately: 429.
	status, body := post(t, ts.URL+"/v1/generate", slow)
	if status != http.StatusTooManyRequests {
		t.Errorf("overflow status %d (%s), want 429", status, body)
	}

	// Drain resolves both outstanding requests: the queued one is refused
	// (503) without sitting out its wait, and the slot holder's anytime
	// search is cut short but still answers 200 with best-so-far.
	s.Drain()
	if got := <-queued; got != http.StatusServiceUnavailable {
		t.Errorf("queued status %d, want 503", got)
	}
	if got := <-done; got != http.StatusOK {
		t.Errorf("admitted request status %d, want 200", got)
	}
	if s.rejected.Load() < 2 {
		t.Errorf("rejected counter %d, want >= 2", s.rejected.Load())
	}
}

func TestDrainReturnsBestSoFar(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := api.GenerateRequest{SearchParams: api.SearchParams{BudgetMS: 10000, Seed: 1}, Queries: figure1}
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, body := post(t, ts.URL+"/v1/generate", req)
		done <- result{status, body}
	}()
	waitFor(t, func() bool { return len(s.sem) == 1 })

	start := time.Now()
	s.Drain()
	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("drained request status %d: %s", res.status, res.body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain took %v; the anytime search should end promptly", elapsed)
	}
	resp := decodeGenerate(t, res.body)
	if !resp.Search.Interrupted {
		t.Error("drained response not marked interrupted")
	}
	if !resp.Valid {
		t.Error("drained response carries no best-so-far interface")
	}

	// Post-drain: new work refused. Liveness and readiness split — the
	// process is still alive (/healthz 200, so an orchestrator won't kill a
	// draining replica mid-handoff) but must take no new traffic (/readyz
	// 503, so a fleet router routes around it).
	if status, _ := post(t, ts.URL+"/v1/generate", req); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain generate status %d, want 503", status)
	}
	status, hbody := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Errorf("post-drain healthz status %d, want 200 (liveness survives drain)", status)
	}
	var health api.HealthResponse
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining || health.Ready {
		t.Errorf("post-drain healthz body %+v, want draining=true ready=false", health)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain readyz status %d, want 503", status)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestSSEStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.GenerateRequest{SearchParams: fastParams, Queries: figure1, Stream: true}
	data, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, string(body))
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("last event %q, want result (events: %d)", last.name, len(events))
	}
	progress := 0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Errorf("unexpected event %q before result", ev.name)
		}
		var p api.ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("bad progress data %q: %v", ev.data, err)
		}
		progress++
	}
	if progress == 0 {
		t.Error("no progress events before the result")
	}

	// The streamed result equals the plain JSON response for the same
	// request (determinism is transport-independent).
	var streamed api.GenerateResponse
	if err := json.Unmarshal([]byte(last.data), &streamed); err != nil {
		t.Fatal(err)
	}
	plainReq := req
	plainReq.Stream = false
	status, plainBody := post(t, ts.URL+"/v1/generate", plainReq)
	if status != http.StatusOK {
		t.Fatalf("plain run: %d", status)
	}
	plain := decodeGenerate(t, plainBody)
	if !bytes.Equal(streamed.Interface, plain.Interface) || streamed.Cost != plain.Cost {
		t.Error("streamed result differs from plain JSON result")
	}
}

type sseEvent struct{ name, data string }

func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, frame := range strings.Split(body, "\n\n") {
		frame = strings.TrimSpace(frame)
		if frame == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(frame, "\n") {
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				ev.name = name
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				ev.data = data
			}
		}
		if ev.name == "" {
			t.Fatalf("frame without event name: %q", frame)
		}
		out = append(out, ev)
	}
	return out
}

func TestSessionLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	for _, id := range []string{"a", "b", "c"} {
		url := fmt.Sprintf("%s/v1/sessions/%s/queries", ts.URL, id)
		if status, body := post(t, url, api.SessionQueriesRequest{SearchParams: fastParams, Queries: figure1}); status != http.StatusOK {
			t.Fatalf("session %s: %d %s", id, status, body)
		}
	}
	s.mu.Lock()
	n := len(s.sessions)
	_, aAlive := s.sessions["a"]
	s.mu.Unlock()
	if n != 2 {
		t.Errorf("resident sessions %d, want 2", n)
	}
	if aAlive {
		t.Error("LRU session survived eviction")
	}
	if status, _ := get(t, ts.URL+"/v1/sessions/a/export"); status != http.StatusNotFound {
		t.Errorf("evicted session still exported: %d", status)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cl := testClient(ts.URL)
	ctx := context.Background()
	if _, err := cl.Generate(ctx, &api.GenerateRequest{SearchParams: fastParams, Queries: figure1}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Cache.Entries == 0 || st.Cache.Capacity == 0 {
		t.Errorf("cache never populated: %+v", st.Cache)
	}
	if st.Requests != 1 || st.Draining {
		t.Errorf("stats = %+v", st)
	}
	if ok, err := cl.Healthy(ctx); err != nil || !ok {
		t.Errorf("healthy: %v %v", ok, err)
	}
	if ok, err := cl.Ready(ctx); err != nil || !ok {
		t.Errorf("ready: %v %v", ok, err)
	}
}

// TestReadinessGate pins the liveness/readiness split for warm boots: a
// server started with StartUnready (mctsuid loading a cache snapshot in the
// background) is alive but unready until MarkReady — so a fleet router keeps
// traffic off a still-cold replica without mistaking it for dead — and Ready
// never reports true once draining.
func TestReadinessGate(t *testing.T) {
	s, ts := newTestServer(t, Config{StartUnready: true})
	cl := testClient(ts.URL)
	ctx := context.Background()

	if ok, err := cl.Healthy(ctx); err != nil || !ok {
		t.Errorf("unready server healthz = %v %v, want alive", ok, err)
	}
	if ok, err := cl.Ready(ctx); err != nil || ok {
		t.Errorf("pre-MarkReady readyz = %v %v, want not ready", ok, err)
	}
	// Unready gates only routing, not serving: a request that does arrive
	// (raced in before a router noticed, or sent directly) is still served.
	if _, err := cl.Generate(ctx, &api.GenerateRequest{SearchParams: fastParams, Queries: figure1}); err != nil {
		t.Errorf("generate while unready: %v", err)
	}

	s.MarkReady()
	if ok, err := cl.Ready(ctx); err != nil || !ok {
		t.Errorf("post-MarkReady readyz = %v %v, want ready", ok, err)
	}

	s.Drain()
	if ok, err := cl.Ready(ctx); err != nil || ok {
		t.Errorf("draining readyz = %v %v, want not ready", ok, err)
	}
	if ok, err := cl.Healthy(ctx); err != nil || !ok {
		t.Errorf("draining healthz = %v %v, want alive", ok, err)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestConcurrentSessionsRace drives several sessions concurrently (append +
// interact + export) as the -race exercise for the session/admission
// locking.
func TestConcurrentSessionsRace(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("race-%d", w%3) // overlap sessions across goroutines
			base := fmt.Sprintf("%s/v1/sessions/%s", ts.URL, id)
			for i := 0; i < 3; i++ {
				q := figure1[(w+i)%len(figure1)]
				status, body := post(t, base+"/queries", api.SessionQueriesRequest{SearchParams: fastParams, Queries: []string{q}})
				if status != http.StatusOK {
					t.Errorf("append: %d %s", status, body)
					return
				}
				post(t, base+"/interact", api.InteractRequest{Op: "get"})
				get(t, base+"/export?format=json")
			}
		}(w)
	}
	wg.Wait()
}
