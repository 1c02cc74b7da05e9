package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// soakWorkloads builds distinct synthetic query logs (SDSS-style) so the
// soak's state universe far exceeds the evicting cache's capacity.
func soakWorkloads(n int) [][]string {
	out := make([][]string, n)
	for w := 0; w < n; w++ {
		cfg := workload.DefaultGenConfig()
		cfg.Queries = 4
		cfg.Tables = 2
		cfg.LiteralVars = 2
		cfg.Seed = int64(100 + w)
		log := workload.Generate(cfg)
		qs := make([]string, len(log))
		for i, q := range log {
			qs[i] = sqlparser.Render(q)
		}
		out[w] = qs
	}
	return out
}

// normalizeSession clears the client-chosen session name so responses from
// differently named sessions compare byte-for-byte. Errors report via
// t.Errorf and return nil (callers run on worker goroutines, where FailNow
// is not allowed); a nil return never equals an expected body.
func normalizeSession(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp api.GenerateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Errorf("bad response %s: %v", body, err)
		return nil
	}
	resp.Session = ""
	out, err := json.Marshal(resp)
	if err != nil {
		t.Errorf("re-marshal response: %v", err)
		return nil
	}
	return out
}

// TestSoakEvictionDeterminism is the serving acceptance soak: ~30s of
// concurrent sessions and one-shot generates against a daemon whose shared
// cache is sized to force constant eviction. At steady state the cache must
// sit at capacity with nonzero evictions and hits, and every response must
// be bit-identical to the same request answered by a fresh daemon with an
// unbounded cache — eviction buys memory, never a different answer.
func TestSoakEvictionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("30s soak")
	}
	const (
		numWorkloads = 6
		stepLen      = 2 // queries appended per session step
		soakFor      = 30 * time.Second
		soakWorkers  = 8
	)
	logs := soakWorkloads(numWorkloads)
	params := api.SearchParams{Iterations: 8, Seed: 7}
	// One-shot generates search from another seed, so they reach states
	// the session chains do not.
	oneShot := api.SearchParams{Iterations: 8, Seed: 11}

	// Reference daemon: fresh, unbounded cache. Capture the expected body
	// for every request the soak will repeat.
	refSrv, ref := newTestServer(t, Config{})
	type chainStep struct{ body []byte }
	refChains := make([][]chainStep, numWorkloads)
	refGenerate := make([][]byte, numWorkloads)
	for w, qs := range logs {
		status, body := post(t, ref.URL+"/v1/generate", api.GenerateRequest{SearchParams: oneShot, Queries: qs})
		if status != http.StatusOK {
			t.Fatalf("reference generate %d: %d %s", w, status, body)
		}
		refGenerate[w] = body
		base := fmt.Sprintf("%s/v1/sessions/ref-%d", ref.URL, w)
		for step := 0; step*stepLen < len(qs); step++ {
			chunk := qs[step*stepLen : (step+1)*stepLen]
			status, body := post(t, base+"/queries", api.SessionQueriesRequest{SearchParams: params, Queries: chunk})
			if status != http.StatusOK {
				t.Fatalf("reference session %d step %d: %d %s", w, step, status, body)
			}
			refChains[w] = append(refChains[w], chainStep{normalizeSession(t, body)})
		}
	}
	if st := refSrv.Cache().Stats(); st.Evictions != 0 {
		t.Fatalf("reference cache evicted (%d); it must be effectively unbounded for this soak", st.Evictions)
	}
	ref.Close()

	// Soak daemon: the same engine behind a cache ~100x smaller than the
	// state universe, so admission-heavy traffic runs eviction constantly.
	tiny := mctsui.NewCache(256)
	soakSrv := New(Config{Cache: tiny, MaxConcurrent: soakWorkers})
	ts := httptest.NewServer(soakSrv.Handler())
	defer ts.Close()

	var rounds, mismatches atomic.Int64
	deadline := time.Now().Add(soakFor)
	var wg sync.WaitGroup
	for g := 0; g < soakWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; time.Now().Before(deadline); round++ {
				w := (g + round) % numWorkloads
				// One-shot generate: the full response body must be
				// byte-identical to the unbounded-cache reference.
				status, body := post(t, ts.URL+"/v1/generate", api.GenerateRequest{SearchParams: oneShot, Queries: logs[w]})
				if status != http.StatusOK {
					t.Errorf("soak generate: %d %s", status, body)
					mismatches.Add(1)
					return
				}
				if !bytes.Equal(body, refGenerate[w]) {
					t.Errorf("workload %d: evicting-cache response differs from unbounded-cache reference", w)
					mismatches.Add(1)
					return
				}
				// Incremental session chain: warm-started appends must
				// reproduce the reference chain step by step.
				id := fmt.Sprintf("soak-%d-%d", g, round)
				base := fmt.Sprintf("%s/v1/sessions/%s", ts.URL, id)
				for step, want := range refChains[w] {
					chunk := logs[w][step*stepLen : (step+1)*stepLen]
					status, body := post(t, base+"/queries", api.SessionQueriesRequest{SearchParams: params, Queries: chunk})
					if status != http.StatusOK {
						t.Errorf("soak session step %d: %d %s", step, status, body)
						mismatches.Add(1)
						return
					}
					if !bytes.Equal(normalizeSession(t, body), want.body) {
						t.Errorf("workload %d step %d: session response diverged under eviction", w, step)
						mismatches.Add(1)
						return
					}
				}
				rounds.Add(1)
				if st := tiny.Stats(); st.Entries > st.Capacity {
					t.Errorf("occupancy %d exceeded capacity %d mid-soak", st.Entries, st.Capacity)
					mismatches.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if mismatches.Load() != 0 {
		t.Fatalf("%d mismatching responses", mismatches.Load())
	}
	if rounds.Load() < int64(soakWorkers) {
		t.Fatalf("soak completed only %d rounds; expected at least one per worker", rounds.Load())
	}

	// Steady state via the public stats endpoint: occupancy at capacity,
	// eviction and hit counters both nonzero.
	status, body := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries != st.Cache.Capacity {
		t.Errorf("steady-state occupancy %d, want capacity %d", st.Cache.Entries, st.Cache.Capacity)
	}
	if st.Cache.Evictions == 0 {
		t.Error("soak recorded no evictions")
	}
	if st.Cache.Hits == 0 {
		t.Error("soak recorded no cache hits")
	}
	t.Logf("soak: %d rounds, cache %d/%d entries, %d evictions, %d hits (%.1f%% hit rate)",
		rounds.Load(), st.Cache.Entries, st.Cache.Capacity, st.Cache.Evictions, st.Cache.Hits,
		100*st.Cache.HitRate)
}
