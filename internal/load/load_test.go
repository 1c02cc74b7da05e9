package load

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// shortSpec is a sub-second two-class spec used by the generation and
// replay tests; rates are high so even the short horizon yields a
// substantive trace.
func shortSpec(seed int64) Spec {
	return Spec{
		Name:       "test",
		Seed:       seed,
		WarmupMS:   100,
		DurationMS: 400,
		Classes: []ClassSpec{
			{
				Name:       "steady",
				Arrival:    "poisson",
				RatePerSec: 40,
				SessionOps: 3,
				ThinkMS:    20,
				Mix:        OpMix{Generate: 1, Append: 2, Interact: 2, Export: 1},
			},
			{
				Name:        "bursty",
				Arrival:     "gamma",
				RatePerSec:  25,
				CV:          3,
				Mix:         OpMix{Generate: 1},
				InitQueries: 2,
				Stream:      true,
			},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(shortSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(shortSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec+seed generated different traces")
	}
	c, err := Generate(shortSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical traces")
	}
	if len(a) < 10 {
		t.Fatalf("suspiciously small trace: %d events", len(a))
	}
}

func TestGenerateInvariants(t *testing.T) {
	spec := shortSpec(7)
	events, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	horizonUS := spec.Horizon().Microseconds()
	var lastAt int64
	sessionsOpened := make(map[string]bool)
	for i := range events {
		ev := &events[i]
		if ev.Seq != i {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
		if ev.AtUS < lastAt {
			t.Fatalf("event %d: time goes backwards", i)
		}
		lastAt = ev.AtUS
		if ev.AtUS >= horizonUS {
			t.Fatalf("event %d scheduled past the horizon", i)
		}
		if ev.AtUS < 0 {
			t.Fatalf("event %d: negative dispatch time", i)
		}
		switch ev.Op {
		case OpGenerate, OpAppend:
			if len(ev.Queries) == 0 {
				t.Fatalf("event %d: %s without queries", i, ev.Op)
			}
		case OpInteract, OpExport:
		default:
			t.Fatalf("event %d: unknown op %q", i, ev.Op)
		}
		if (ev.Op == OpGenerate) == (ev.Session != "") {
			t.Fatalf("event %d: %s with session %q", i, ev.Op, ev.Session)
		}
		if ev.Seed <= 0 {
			t.Fatalf("event %d: missing per-request seed", i)
		}
		// Session state must be created (by an append) before any
		// interact/export touches it — the generator's ordering guarantee.
		switch ev.Op {
		case OpAppend:
			sessionsOpened[ev.Session] = true
		case OpInteract, OpExport:
			if !sessionsOpened[ev.Session] {
				t.Fatalf("event %d: %s on session %q before its creating append", i, ev.Op, ev.Session)
			}
		}
	}
	byClass := make(map[string]int)
	for i := range events {
		byClass[events[i].Class]++
	}
	if byClass["steady"] == 0 || byClass["bursty"] == 0 {
		t.Fatalf("class starved: %v", byClass)
	}
}

func TestSpecParseRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"duration_ms":100,"classses":[]}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	if _, err := ParseSpec([]byte(`{"duration_ms":100,"classes":[{"name":"a","rate_per_sec":1,"mix":{"generate":1}}]}`)); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
}

func TestSmokeSpecValid(t *testing.T) {
	spec := SmokeSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(spec); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..10000 µs uniformly: quantiles are known exactly, and the
	// log-linear buckets must land within ~1.6% relative error.
	for v := int64(1); v <= 10000; v++ {
		h.Record(v)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 5000}, {0.95, 9500}, {0.99, 9900}, {1.0, 10000}} {
		got := h.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*1.02 {
			t.Errorf("q%.2f = %d, want [%d, %d]", tc.q, got, tc.want, int64(float64(tc.want)*1.02))
		}
	}
	if h.Max() != 10000 || h.Count() != 10000 {
		t.Fatalf("max %d count %d", h.Max(), h.Count())
	}
	if m := h.Mean(); m < 5000 || m > 5001 {
		t.Fatalf("mean %f", m)
	}
	// Quantiles never exceed the exact max even for a single sample in a
	// wide bucket.
	var single Histogram
	single.Record(1 << 20)
	if got := single.Quantile(0.99); got != 1<<20 {
		t.Fatalf("single-sample q99 %d, want clamped to max", got)
	}
	// Merge equals recording into one histogram.
	var a, b, all Histogram
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merged q%.2f differs", q)
		}
	}
}

// TestReplayOpenLoop pins the defining open-loop property: a slow server
// does not slow down dispatch. Ten arrivals 10ms apart against a handler
// that takes 300ms must all be in flight concurrently — a closed-loop
// client would take ~3s, the open-loop one ~400ms.
func TestReplayOpenLoop(t *testing.T) {
	var inflight, peak atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(300 * time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	events := make([]Event, 10)
	for i := range events {
		events[i] = Event{
			Seq: i, AtUS: int64(i) * 10_000, Class: "c", Op: OpGenerate,
			Queries: []string{"SELECT Sales FROM sales WHERE cty = USA"},
		}
	}
	start := time.Now()
	res, err := Replay(context.Background(), events, Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.Dispatched != 10 || len(res.Samples) != 10 {
		t.Fatalf("dispatched %d, samples %d", res.Dispatched, len(res.Samples))
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("replay took %v — arrivals were delayed by responses (closed-loop)", elapsed)
	}
	if p := peak.Load(); p < 5 {
		t.Fatalf("peak concurrency %d — open-loop dispatch should overlap slow responses", p)
	}
	for _, s := range res.Samples {
		if !s.ok() {
			t.Fatalf("sample failed: %+v", s)
		}
	}
}

// TestReplayAgainstDaemon is the end-to-end path the CI smoke job runs:
// generate a small trace, replay it against an in-process mctsuid with
// stats scraping, and build the report.
func TestReplayAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs for ~600ms of wall clock")
	}
	srv := server.New(server.Config{MaxConcurrent: 4, MaxWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := shortSpec(9)
	events, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(context.Background(), events, Options{
		BaseURL:    ts.URL,
		StatsEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatched != len(events) {
		t.Fatalf("dispatched %d of %d", res.Dispatched, len(events))
	}

	rep := BuildReport(&spec, res)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if rep.Measured == 0 {
		t.Fatal("no measured samples")
	}
	if rep.Total.OK == 0 {
		t.Fatalf("no successful requests: %+v", rep.Total)
	}
	if rep.Total.GoodputRPS <= 0 {
		t.Fatal("zero goodput")
	}
	if rep.Total.Latency.P99 <= 0 || rep.Total.Latency.P99 < rep.Total.Latency.P50 {
		t.Fatalf("bad latency summary: %+v", rep.Total.Latency)
	}
	names := make([]string, 0, len(rep.Classes))
	for _, c := range rep.Classes {
		names = append(names, c.Class)
		if c.Total.Count == 0 {
			t.Fatalf("class %q empty", c.Class)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"bursty", "steady"}) {
		t.Fatalf("classes %v", names)
	}
	// The bursty class streams: its generate cell must carry TTFE.
	for _, c := range rep.Classes {
		if c.Class != "bursty" {
			continue
		}
		for _, op := range c.Ops {
			if op.Op == OpGenerate && op.OK > 0 && op.TTFE == nil {
				t.Fatal("streamed generates reported no time-to-first-event")
			}
		}
	}
	if rep.Server == nil {
		t.Fatal("no server report despite stats scraping")
	}
	if rep.Server.ScrapePoints < 2 {
		t.Fatalf("only %d stats scrapes", rep.Server.ScrapePoints)
	}
	if rep.Server.Served == 0 {
		t.Fatal("server admission saw no served requests")
	}
	// The report must survive a JSON round trip (it is the artifact).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total.Count != rep.Total.Count {
		t.Fatal("report changed across JSON round trip")
	}
}

// TestReplayCancel stops dispatch mid-trace and verifies clean shutdown.
func TestReplayCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	events := make([]Event, 100)
	for i := range events {
		events[i] = Event{
			Seq: i, AtUS: int64(i) * 50_000, Class: "c", Op: OpGenerate,
			Queries: []string{"q"},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := Replay(ctx, events, Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatched >= 100 || res.Dispatched == 0 {
		t.Fatalf("dispatched %d, want a strict mid-trace prefix", res.Dispatched)
	}
	if len(res.Samples) != res.Dispatched {
		t.Fatalf("%d samples for %d dispatched", len(res.Samples), res.Dispatched)
	}
}

// TestGammaSampler sanity-checks the Marsaglia–Tsang sampler's first two
// moments for shapes below and above 1.
func TestGammaSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []float64{0.25, 0.5, 1, 2, 4} {
		n := 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := sampleGamma(rng, k)
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		// Gamma(k, 1): mean k, variance k.
		if mean < k*0.97 || mean > k*1.03 {
			t.Errorf("k=%v: mean %v", k, mean)
		}
		if variance < k*0.9 || variance > k*1.1 {
			t.Errorf("k=%v: variance %v", k, variance)
		}
	}
}

func TestQueryLogs(t *testing.T) {
	for _, name := range []string{"figure1", "sdss", "sdss-join"} {
		qs, err := QueryLog(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(qs) == 0 {
			t.Fatalf("%s: empty log", name)
		}
	}
	if _, err := QueryLog("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBuildReportWarmupFilter(t *testing.T) {
	spec := Spec{Name: "w", Seed: 1, WarmupMS: 1000, DurationMS: 1000,
		Classes: []ClassSpec{{Name: "c", RatePerSec: 1, Mix: OpMix{Generate: 1}}}}
	res := &RunResult{
		Samples: []Sample{
			{Class: "c", Op: OpGenerate, Status: 200, StartUS: 500_000, LatencyUS: 1000},   // warmup
			{Class: "c", Op: OpGenerate, Status: 200, StartUS: 1_500_000, LatencyUS: 2000}, // measured
			{Class: "c", Op: OpGenerate, Status: 429, StartUS: 1_600_000, LatencyUS: 100},  // measured
		},
		Elapsed:    2 * time.Second,
		Dispatched: 3,
	}
	rep := BuildReport(&spec, res)
	if rep.Measured != 2 {
		t.Fatalf("measured %d, want 2 (warmup sample must be dropped)", rep.Measured)
	}
	if rep.Total.OK != 1 || rep.Total.Status429 != 1 {
		t.Fatalf("total %+v", rep.Total)
	}
	if rep.Total.Rate429 != 0.5 {
		t.Fatalf("rate_429 %v", rep.Total.Rate429)
	}
	if rep.Total.ThroughputRPS != 2 || rep.Total.GoodputRPS != 1 {
		t.Fatalf("throughput %v goodput %v", rep.Total.ThroughputRPS, rep.Total.GoodputRPS)
	}
}
