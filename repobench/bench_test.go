package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if v, p := tail(xs, 90); v != 90 || p != 90 {
		t.Errorf("p90 of 1..100 = %v (p%v), want 90 (p90)", v, p)
	}
	// 99 samples do not support a p90: the highest supported is the median.
	if v, p := tail(xs[:99], 90); p != 50 || v != 51 {
		t.Errorf("tail of 99 samples = %v (p%v), want 51 (p50)", v, p)
	}
	// Below 20 samples not even the median has 10 beyond it; the median is
	// still reported.
	if v, p := tail([]float64{3, 1, 2}, 90); v != 2 || p != 50 {
		t.Errorf("tail of 3 samples = %v (p%v), want 2 (p50)", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spanSearch, parent: -1, start: 0, end: 100},
		{kind: spanRollout, parent: 0, start: 10, end: 30},
		{kind: spanRollout, parent: 0, start: 20, end: 50}, // overlaps its sibling
		{kind: spanReward, parent: 0, start: 60, end: 70},
		{kind: spanCost, parent: 3, start: 61, end: 69},
		{kind: spanMoves, parent: 0, start: 95, end: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	// Root: 100 minus the union [10,50] + [60,70] + [95,100] = 45.
	want := []int64{45, 20, 30, 2, 8, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	totals, searchSelf := kindTotals(spans)
	if searchSelf != 45 || totals[spanRollout] != 50 {
		t.Errorf("kindTotals: search self %d, rollout total %d; want 45, 50", searchSelf, totals[spanRollout])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(4)
	a := tr.begin(spanSearch)
	b := tr.begin(spanReward)
	tr.end(b)
	c := tr.begin(spanRollout)
	tr.end(c)
	tr.end(a)
	if tr.spans[b].parent != a || tr.spans[c].parent != a || tr.spans[a].parent != -1 || tr.open != -1 {
		t.Fatalf("bad nesting: %+v open=%d", tr.spans, tr.open)
	}
	var none *tracer
	none.end(none.begin(spanSearch)) // a nil tracer records nothing
}

func TestJoinHandlers(t *testing.T) {
	t0 := time.Unix(0, 0)
	reqs := []*request{
		{kind: opAppend, session: "a", method: "POST", path: "/v1/sessions/a/queries", ord: 0},
		{kind: opGet, session: "a", method: "POST", path: "/v1/sessions/a/interact", ord: 0},
		{kind: opGet, session: "a", method: "POST", path: "/v1/sessions/a/interact", ord: 1},
		{kind: opExport, session: "b", method: "GET", path: "/v1/sessions/b/export", ord: 0},
	}
	recs := []handlerRec{
		{replica: 1, method: "POST", path: "/v1/sessions/a/interact", ord: 1, start: t0, end: t0.Add(3)},
		{replica: 1, method: "POST", path: "/v1/sessions/a/interact", ord: 0, start: t0, end: t0.Add(2)},
		{replica: 1, method: "POST", path: "/v1/sessions/a/queries", ord: 0, start: t0, end: t0.Add(1)},
		{replica: 0, method: "POST", path: "/v1/sessions/b/export", ord: 0}, // method differs: no match
	}
	got := joinHandlers(reqs, recs)
	if len(got) != 3 {
		t.Fatalf("joined %d requests, want 3", len(got))
	}
	for i, want := range []time.Duration{1, 2, 3} {
		if got[i].req != reqs[i] || got[i].h.end.Sub(got[i].h.start) != want {
			t.Errorf("join %d paired %s#%d with a %v handler span", i, got[i].req.path, got[i].req.ord, got[i].h.end.Sub(got[i].h.start))
		}
	}
}

func TestReadP50MS(t *testing.T) {
	t0 := time.Unix(0, 0)
	req := func(kind opKind, latMS int, err error) *request {
		return &request{kind: kind, due: t0, done: t0.Add(time.Duration(latMS) * time.Millisecond), err: err}
	}
	reqs := []*request{
		req(opGet, 1, nil), req(opGet, 2, nil), req(opGet, 3, nil),
		req(opExport, 10, nil), req(opExport, 20, nil),
		req(opGet, 1000, errors.New("refused")), // failed: left out
		req(opImport, 500, nil),                 // a write: left out
	}
	// Per-kind medians 2 and 15 ms, weighted interact 3 : export 2.
	got, n := readP50MS(reqs)
	if want := (3*2.0 + 2*15.0) / 5; math.Abs(got-want) > 1e-9 || n != 5 {
		t.Errorf("readP50MS = %v over %d reads, want %v over 5", got, n, want)
	}
}

func TestDeriveSeeds(t *testing.T) {
	a, b := deriveSeeds(7, 3), deriveSeeds(7, 3)
	for i := range a {
		if a[i] != b[i] || a[i] <= 0 {
			t.Fatalf("deriveSeeds not deterministic and positive: %v %v", a, b)
		}
	}
	if c := deriveSeeds(8, 3); c[0] == a[0] {
		t.Errorf("seeds 7 and 8 derive the same first search seed %d", a[0])
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny search
// budget and checks that it completes correctly and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e := []string{"generate_p50_s", "read_p50_ms", "best_cost", "heap_live_mb", "setup_s"}
	layers := []string{"eval.moves_s", "eval.legal.legal_rate", "core.rollout.fallback_rate", "mcts.self_s",
		"eval.cache.hit_rate", "router.hop_ms_p50", "server.append_ms_p90", "load.conn_wait_ms_p90", "trace.overhead_pct"}
	for _, w := range []string{"sdss-cold", "sdss-warm", "serve-sessions"} {
		for _, traced := range []bool{false, true} {
			window := 500 * time.Millisecond
			if w == "serve-sessions" {
				window = 4 * time.Second // a few sessions at the workload's rate
			}
			cfg := &config{workload: w, seed: 3, duration: window, traced: traced, conns: 2, searchIters: 2, serveIters: 1}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			for _, m := range want {
				if _, ok := out.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m)
				}
			}
		}
	}
}
