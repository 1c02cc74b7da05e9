package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// startFake serves h behind a /v1/stats endpoint that reports a ready
// replica, so a router's probe admits it to the ring.
func startFake(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		var st api.StatsResponse
		st.Replica.ID = "fake"
		st.Replica.Ready = true
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.Handle("/", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterStreamsSSEEventByEvent: an SSE response reaches the client
// event by event — the first event arrives while the replica is still
// holding the response open.
func TestRouterStreamsSSEEventByEvent(t *testing.T) {
	release := make(chan struct{})
	rep := startFake(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "event: progress\ndata: {\"iteration\":1}\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		_, _ = io.WriteString(w, "event: result\ndata: {}\n\n")
	}))
	_, tsR := startRouter(t, "", rep.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tsR.URL+"/v1/generate", strings.NewReader(`{"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != -1 {
		t.Errorf("SSE response carries Content-Length %d", resp.ContentLength)
	}
	br := bufio.NewReader(resp.Body)
	first, err := readEvent(br)
	if err != nil {
		t.Fatalf("first event before the replica finished: %v", err)
	}
	if !strings.HasPrefix(first, "event: progress") {
		t.Errorf("first event %q, want the progress event", first)
	}
	close(release)
	last, err := readEvent(br)
	if err != nil || !strings.HasPrefix(last, "event: result") {
		t.Errorf("second event %q (%v), want the result event", last, err)
	}
}

// readEvent reads one SSE frame (up to its blank line).
func readEvent(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for {
		line, err := br.ReadString('\n')
		sb.WriteString(line)
		if err != nil {
			return sb.String(), err
		}
		if line == "\n" {
			return sb.String(), nil
		}
	}
}

// TestRouterRelaysBodiesByteIdentical: a response with a Content-Length
// (smaller and larger than the relay buffer) arrives byte-identical and
// keeps the replica's Content-Length; a response without one arrives
// byte-identical too.
func TestRouterRelaysBodiesByteIdentical(t *testing.T) {
	bodies := map[string][]byte{
		"small": bytes.Repeat([]byte(`{"k":"v"}`), 1200),   // ~10 KB, one write
		"large": bytes.Repeat([]byte(`{"k":"v"}`), 12_000), // ~105 KB, copied in pieces
	}
	rep := startFake(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"), "/")[0]
		w.Header().Set("Content-Type", "application/json")
		if id == "chunked" {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(bodies["small"])
			w.(http.Flusher).Flush() // forces chunked encoding
			_, _ = w.Write(bodies["small"])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(bodies[id])))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(bodies[id])
	}))
	_, tsR := startRouter(t, "", rep.URL)
	bodies["chunked"] = append(append([]byte(nil), bodies["small"]...), bodies["small"]...)

	for _, id := range []string{"small", "large", "chunked"} {
		resp, err := http.Get(tsR.URL + "/v1/sessions/" + id + "/export")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(got, bodies[id]) {
			t.Errorf("%s: body differs (%d bytes, want %d)", id, len(got), len(bodies[id]))
		}
		wantLen := int64(len(bodies[id]))
		if id == "chunked" {
			wantLen = -1
		}
		if resp.ContentLength != wantLen {
			t.Errorf("%s: Content-Length %d, want %d", id, resp.ContentLength, wantLen)
		}
		if resp.Header.Get("X-Fleet-Replica") != rep.URL {
			t.Errorf("%s: X-Fleet-Replica %q, want %q", id, resp.Header.Get("X-Fleet-Replica"), rep.URL)
		}
	}
}

// TestRouterDialFailureReplaysBody: a request placed on a replica that can
// no longer be dialed is replayed, body intact, on the survivor, and the
// unreachable replica is ejected.
func TestRouterDialFailureReplaysBody(t *testing.T) {
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	live := startFake(t, echo)
	dead := startFake(t, echo)
	rt, tsR := startRouter(t, "", live.URL, dead.URL)

	// A session the ring places on the replica about to die.
	id := ""
	for i := 0; i < 1000 && id == ""; i++ {
		cand := "s" + strconv.Itoa(i)
		if rep, err := rt.place("s:"+cand, cand); err == nil && rep.URL == dead.URL {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("no session id places on the second replica")
	}
	dead.Close()

	body := `{"op":"load_query","query":"SELECT Sales FROM sales"}`
	resp, err := http.Post(tsR.URL+"/v1/sessions/"+id+"/interact", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != body {
		t.Errorf("replayed request: status %d body %q, want 200 %q", resp.StatusCode, got, body)
	}
	if resp.Header.Get("X-Fleet-Replica") != live.URL {
		t.Errorf("answered by %q, want the survivor %q", resp.Header.Get("X-Fleet-Replica"), live.URL)
	}
	rt.mu.Lock()
	state := rt.replicas[dead.URL].state
	rt.mu.Unlock()
	if state != api.StateDead {
		t.Errorf("unreachable replica state %q, want %q", state, api.StateDead)
	}
}
