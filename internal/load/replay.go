package load

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
)

// Options configures a replay run.
type Options struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests (http.DefaultClient when nil). Replays
	// against a loaded daemon want a generous Timeout and MaxConnsPerHost
	// left unlimited — open-loop traffic needs one connection per in-flight
	// request.
	Client *http.Client
	// StatsEvery scrapes GET /v1/stats on this cadence into the result's
	// stats curve (0: no scraping).
	StatsEvery time.Duration
}

// StatsPoint is one /v1/stats scrape, decoded leniently (unknown fields
// ignored) so the harness tolerates stats-surface growth.
type StatsPoint struct {
	AtMS  int64 `json:"at_ms"`
	Cache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Entries   int64   `json:"entries"`
		Evictions int64   `json:"evictions"`
		Capacity  int64   `json:"capacity"`
		HitRate   float64 `json:"hit_rate"`
		Occupancy float64 `json:"occupancy"`
	} `json:"cache"`
	Admission struct {
		Served          int64   `json:"served"`
		Overflow429     int64   `json:"overflow_429"`
		QueueTimeout503 int64   `json:"queue_timeout_503"`
		Draining503     int64   `json:"draining_503"`
		ClientGone      int64   `json:"client_gone"`
		QueueWaitMS     float64 `json:"queue_wait_total_ms"`
	} `json:"admission"`
	Queued   int64 `json:"queued"`
	Inflight int64 `json:"inflight"`
	Sessions int64 `json:"sessions"`
}

// RunResult is a completed replay: every sample, the server stats curve
// (first and last scrape bracket the run), and the wall-clock span.
type RunResult struct {
	Samples []Sample
	Stats   []StatsPoint
	// Elapsed is dispatch of the first event to completion of the last
	// response.
	Elapsed time.Duration
	// Dispatched counts events actually issued (all of them unless the
	// context was cancelled mid-run).
	Dispatched int
}

// Replay issues the trace against the daemon with open-loop semantics:
// each event fires at its scheduled offset from the run start on its own
// goroutine, so a late response never delays a future arrival — the
// defining property of an open-loop load generator, and the reason an
// overloaded daemon sees queue growth instead of a politely backing-off
// client. Cancelling ctx stops dispatching and waits for in-flight
// requests to finish.
func Replay(ctx context.Context, events []Event, opt Options) (*RunResult, error) {
	if opt.BaseURL == "" {
		return nil, fmt.Errorf("replay: no BaseURL")
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	// The typed client with retries disabled: open-loop measurement means a
	// refused connection is a data point, never something to paper over
	// with a re-send.
	cl := client.New(strings.TrimRight(opt.BaseURL, "/"))
	cl.HTTPClient = opt.Client
	cl.Retries = -1

	col := NewCollector()
	start := time.Now()

	// Stats scraper: one goroutine sampling /v1/stats on a fixed cadence,
	// plus one final scrape after the last response so the curve's endpoint
	// reflects the whole run.
	var stats []StatsPoint
	var statsMu sync.Mutex
	scrape := func() {
		p, err := scrapeStats(ctx, cl, start)
		if err != nil {
			return // a missed scrape thins the curve, never fails the run
		}
		statsMu.Lock()
		stats = append(stats, p)
		statsMu.Unlock()
	}
	scrapeCtx, stopScraper := context.WithCancel(ctx)
	var scraperDone chan struct{}
	if opt.StatsEvery > 0 {
		scraperDone = make(chan struct{})
		go func() {
			defer close(scraperDone)
			tick := time.NewTicker(opt.StatsEvery)
			defer tick.Stop()
			scrape()
			for {
				select {
				case <-tick.C:
					scrape()
				case <-scrapeCtx.Done():
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	dispatched := 0
dispatch:
	for i := range events {
		ev := &events[i]
		if wait := time.Duration(ev.AtUS)*time.Microsecond - time.Since(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		dispatched++
		wg.Add(1)
		go func(ev *Event) {
			defer wg.Done()
			col.Add(issue(ctx, cl, ev, start))
		}(ev)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stopScraper()
	if scraperDone != nil {
		<-scraperDone
		scrape() // final point after the last response
	}
	return &RunResult{
		Samples:    col.Samples(),
		Stats:      stats,
		Elapsed:    elapsed,
		Dispatched: dispatched,
	}, nil
}

// scrapeStats reads one /v1/stats snapshot through the typed client. The
// client decodes leniently (unknown fields ignored), so the harness
// tolerates stats-surface growth — and a router's FleetStatsResponse, whose
// aggregate is shaped exactly like one daemon's stats, scrapes identically.
func scrapeStats(ctx context.Context, cl *client.Client, start time.Time) (StatsPoint, error) {
	var p StatsPoint
	at := time.Since(start)
	st, err := cl.Stats(ctx)
	if err != nil {
		return p, err
	}
	p.AtMS = at.Milliseconds()
	p.Cache.Hits = st.Cache.Hits
	p.Cache.Misses = st.Cache.Misses
	p.Cache.Entries = st.Cache.Entries
	p.Cache.Evictions = st.Cache.Evictions
	p.Cache.Capacity = st.Cache.Capacity
	p.Cache.HitRate = st.Cache.HitRate
	p.Cache.Occupancy = st.Cache.Occupancy
	p.Admission.Served = st.Admission.Served
	p.Admission.Overflow429 = st.Admission.Overflow429
	p.Admission.QueueTimeout503 = st.Admission.QueueTimeout503
	p.Admission.Draining503 = st.Admission.Draining503
	p.Admission.ClientGone = st.Admission.ClientGone
	p.Admission.QueueWaitMS = st.Admission.QueueWaitMS
	p.Queued = st.Queued
	p.Inflight = int64(st.Inflight)
	p.Sessions = int64(st.Sessions)
	return p, nil
}

// issue performs one event's request through the typed client and reduces
// it to a Sample: a nil error is a 200, a *client.StatusError contributes
// its code, anything else is a transport error (status 0) — exactly the
// three outcomes the open-loop report's goodput/429/503 split needs.
func issue(ctx context.Context, cl *client.Client, ev *Event, start time.Time) Sample {
	s := Sample{
		Class:  ev.Class,
		Op:     ev.Op,
		Stream: ev.Stream,
		TTFEUS: -1,
	}
	t0 := time.Now()
	s.StartUS = t0.Sub(start).Microseconds()
	var err error
	switch ev.Op {
	case OpGenerate:
		req := &api.GenerateRequest{
			SearchParams: api.SearchParams{Iterations: ev.Iterations, Seed: ev.Seed},
			Queries:      ev.Queries,
		}
		if ev.Stream {
			_, err = cl.GenerateStream(ctx, req, func(fr client.StreamEvent) {
				if s.TTFEUS < 0 {
					s.TTFEUS = time.Since(t0).Microseconds()
				}
			})
		} else {
			_, err = cl.Generate(ctx, req)
		}
	case OpAppend:
		_, err = cl.Append(ctx, ev.Session, &api.SessionQueriesRequest{
			SearchParams: api.SearchParams{Iterations: ev.Iterations, Seed: ev.Seed},
			Queries:      ev.Queries,
		})
	case OpInteract:
		_, err = cl.Interact(ctx, ev.Session, &api.InteractRequest{Op: api.OpGet})
	case OpExport:
		_, err = cl.ExportSession(ctx, ev.Session)
	default:
		s.Err = fmt.Sprintf("unknown op %q", ev.Op)
		return s
	}
	s.LatencyUS = time.Since(t0).Microseconds()
	s.Status = http.StatusOK
	if err != nil {
		var se *client.StatusError
		switch {
		case errors.As(err, &se):
			s.Status = se.Code
		case s.TTFEUS >= 0:
			// The stream opened (a 200 was committed) and then failed or
			// ended without a result: the search never delivered.
			s.Err = err.Error()
		default:
			s.Status = 0
			s.Err = err.Error()
		}
	}
	return s
}
