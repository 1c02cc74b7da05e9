package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/load"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// serve-sessions traffic: Poisson session arrivals over the SDSS log, with
// the session shape of the repository's analyst class (analystClass): its
// op mix, operations per session and think time. A session opens with an
// append of the first two queries (or a one-shot generate of them), then
// mixes single-query appends with reads (interact get, export). Searches run
// 2 iterations, so the schedule keeps the two CPUs of the machine this was
// tuned on busy only a small part of the time, well under capacity.
const (
	serveRate       = 5.0 // sessions per second
	serveInit       = 2   // queries in the opening append
	serveIterations = 2   // search iterations per append
	serveWarmup     = 2 * time.Second
	// serveBudget is the daemon's default wall-clock ceiling on a search,
	// which every append carries.
	serveBudget = time.Minute
)

// analystClass is the analyst session class of the repository's built-in
// serving spec, load.SmokeSpec: generate 1, append 3, interact 3, export 2,
// with 200 ms mean think time. It sets the read and write mix of every
// workload.
func analystClass() load.ClassSpec {
	for _, c := range load.SmokeSpec().Classes {
		if c.Name == "analyst" {
			return c
		}
	}
	panic("load.SmokeSpec has no analyst class")
}

func serveSpec(seed int64, window time.Duration, iterations int) load.Spec {
	class := analystClass()
	class.RatePerSec = serveRate
	class.Workload = "sdss"
	class.InitQueries = serveInit
	class.Iterations = iterations
	return load.Spec{
		Name:       "serve-sessions",
		Seed:       seed,
		WarmupMS:   serveWarmup.Milliseconds(),
		DurationMS: window.Milliseconds(),
		Classes:    []load.ClassSpec{class},
	}
}

// serveOp is one scheduled operation of the trace and its outcome.
type serveOp struct {
	ev       load.Event
	req      *request
	measured bool     // scheduled inside the measured window
	log      []string // append: the session log after it; read: the opening log
}

// serveRun is one serve-sessions run.
type serveRun struct {
	cfg *config
	fl  *fleet
	ops []*serveOp
}

// sessionGate orders a session's operations: an append waits for the
// session's previous append, so the log grows in schedule order and every
// result is deterministic; a read waits only for the opening append, which
// creates the session. Waiting counts in the latency, which runs from the
// scheduled time.
type sessionGate struct {
	created    chan struct{}
	lastAppend chan struct{}
	log        []string
}

// dispatch replays the trace open-loop: each operation is released at its
// scheduled offset from start on its own goroutine, whatever earlier
// responses are doing. It returns once every operation has completed.
func (s *serveRun) dispatch(events []load.Event, start time.Time) {
	var ords ordinals
	gates := map[string]*sessionGate{}
	var wg sync.WaitGroup
	for _, ev := range events {
		due := start.Add(time.Duration(ev.AtUS) * time.Microsecond)
		op := &serveOp{ev: ev, measured: due.Sub(start) >= serveWarmup}
		g := gates[ev.Session]
		if g == nil {
			g = &sessionGate{}
			gates[ev.Session] = g
		}
		var wait, done chan struct{}
		kind := opGet
		switch ev.Op {
		case load.OpGenerate:
			kind = opGenerate
			op.log = ev.Queries
		case load.OpAppend:
			kind = opAppend
			wait = g.lastAppend
			done = make(chan struct{})
			g.lastAppend = done
			if g.created == nil {
				g.created = done
			}
			g.log = append(g.log[:len(g.log):len(g.log)], ev.Queries...)
			op.log = g.log
		case load.OpExport:
			kind = opExport
			wait = g.created
			op.log = g.log[:serveInit]
		default:
			wait = g.created
			op.log = g.log[:serveInit]
		}
		op.req = &request{kind: kind, session: ev.Session, due: due}
		s.ops = append(s.ops, op)
		time.Sleep(time.Until(due))
		op.req.released = time.Now()
		var body *api.SessionQueriesRequest
		if kind == opAppend || kind == opGenerate {
			body = &api.SessionQueriesRequest{
				SearchParams: api.SearchParams{Iterations: ev.Iterations, Seed: ev.Seed},
				Queries:      ev.Queries,
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if done != nil {
				defer close(done)
			}
			if wait != nil {
				<-wait
			}
			s.fl.do(op.req, &ords, body, nil)
		}()
	}
	wg.Wait()
}

// check validates one completed operation: an append or a generate must
// return a valid interface over the whole session log that expresses every
// query in it; a read must succeed, and an export must express the opening
// log.
func (s *serveRun) check(op *serveOp) error {
	r := op.req
	if r.kind.isRead() {
		return checkRead(r, op.log)
	}
	if r.err != nil {
		return r.err
	}
	if !r.resp.Valid || r.resp.QueryCount != len(op.log) {
		return fmt.Errorf("%s %s: valid=%v over %d queries, want %d", r.method, r.path, r.resp.Valid, r.resp.QueryCount, len(op.log))
	}
	iface, err := mctsui.LoadInterface(r.resp.Interface, mctsui.Screen{})
	if err != nil {
		return err
	}
	return checkInterface(iface, op.log)
}

// setup starts the fleet and runs a warm-up session (an opening append of
// the whole log and two reads), setupRepeats times; it returns the median
// pass. The warm-up search makes set-up long enough to time steadily.
func (s *serveRun) setup() (float64, error) {
	var passes []float64
	sqls := workload.SDSSLogSQL()
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if s.fl != nil {
			s.fl.close()
			s.fl = nil
		}
		fl, err := startFleet(2, s.cfg.conns, s.cfg.traced)
		if err != nil {
			return 0, err
		}
		s.fl = fl
		var ords ordinals
		body := &api.SessionQueriesRequest{SearchParams: api.SearchParams{Iterations: s.cfg.serveIters, Seed: warmupSeed}, Queries: sqls}
		for _, kind := range []opKind{opAppend, opGet, opExport} {
			r := &request{kind: kind, session: "warmup", due: time.Now()}
			fl.do(r, &ords, body, nil)
			if r.err != nil {
				return 0, fmt.Errorf("warm-up: %w", r.err)
			}
		}
		passes = append(passes, time.Since(start).Seconds())
	}
	return median(passes), nil
}

// live runs set-up and the schedule; it returns the set-up time and the
// measured window's admission counter deltas.
func (s *serveRun) live() (setup float64, admissionWaitMS float64, err error) {
	events, err := load.Generate(serveSpec(s.cfg.seed, s.cfg.duration, s.cfg.serveIters))
	if err != nil {
		return 0, 0, err
	}
	if setup, err = s.setup(); err != nil {
		return 0, 0, err
	}
	served0, wait0, err := s.fl.admission(context.Background())
	if err != nil {
		return 0, 0, err
	}
	s.dispatch(events, time.Now())
	served1, wait1, err := s.fl.admission(context.Background())
	if err != nil {
		return 0, 0, err
	}
	return setup, ratio(wait1-wait0, float64(served1-served0)), nil
}

// tally checks every operation and returns the failure count.
func (s *serveRun) tally() int {
	failed := 0
	for _, op := range s.ops {
		if err := s.check(op); err != nil {
			failed++
			warnf("%s %s at %dus: %v", op.req.method, op.req.path, op.ev.AtUS, err)
		}
	}
	return failed
}

func runServe(cfg *config) (*output, error) {
	s := &serveRun{cfg: cfg}
	setup, _, err := s.live()
	if s.fl != nil {
		defer s.fl.close()
	}
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB() // the replicas still hold every session
	failed := s.tally()
	out := newOutput(len(s.ops), failed)
	var reads []*request
	appends := map[int][]float64{} // latency by session log length
	costs := map[int][]float64{}   // by session log length
	for _, op := range s.ops {
		if !op.measured || op.req.err != nil {
			continue
		}
		lat := op.req.latency()
		if !op.req.kind.isRead() {
			appends[len(op.log)] = append(appends[len(op.log)], lat.Seconds())
			costs[len(op.log)] = append(costs[len(op.log)], op.req.resp.Cost)
		} else {
			reads = append(reads, op.req)
		}
	}
	// The opening appends and the one-shot generates all search the same
	// two-query log. Later appends also wait behind their session's
	// previous append and search logs of different lengths, which made
	// their median move by 20-30% between seeds; they are in the per-layer
	// append metrics.
	readMS, _ := readP50MS(reads)
	out.metric("generate_p50_s", median(appends[serveInit]), "s")
	out.metric("read_p50_ms", readMS, "ms")
	out.metric("best_cost", lengthMeanCost(costs), "cost")
	out.metric("heap_live_mb", heap, "MB")
	out.metric("setup_s", setup, "s")
	notef("serve-sessions: %d ops (%d, %d and %d measured searches over 2, 3 and 4 queries; %d measured reads), %d failed",
		len(s.ops), len(appends[serveInit]), len(appends[serveInit+1]), len(appends[serveInit+2]), len(reads), failed)
	return out, nil
}

// lengthMeanCost is the mean over session log lengths serveInit to
// serveInit+2 of the mean cost of the appends with that log length. Cost
// grows with the log, so a plain mean over appends would move with the mix
// of log lengths a seed happens to schedule.
func lengthMeanCost(byLen map[int][]float64) float64 {
	var per []float64
	for n := serveInit; n <= serveInit+2; n++ {
		if xs := byLen[n]; len(xs) > 0 {
			per = append(per, mean(xs))
		}
	}
	return mean(per)
}

// runServeTraced runs the schedule through the traced fleet, then replays
// every append and generate offline twice, in the order they completed: once
// through mctsui with the daemon's options (untraced) and once through the
// traced mirror, each with one cache per replica. The replay gives the
// search-layer metrics of the serving searches, and its fidelity check
// compares the mirror with the untraced replay and with the live response.
func runServeTraced(cfg *config) (*output, error) {
	s := &serveRun{cfg: cfg}
	_, admissionWait, err := s.live()
	if s.fl != nil {
		defer s.fl.close()
	}
	if err != nil {
		return nil, err
	}
	failed := s.tally()
	var measured []*request
	for _, op := range s.ops {
		if op.measured {
			measured = append(measured, op.req)
		}
	}
	replicaOf := map[string]int{}
	for _, j := range joinHandlers(measured, s.fl.hlog.records()) {
		replicaOf[j.req.session] = j.h.replica
	}
	ls := newLayerStats()
	untraced, traced, replayFailed, err := s.replay(ls, replicaOf)
	if err != nil {
		return nil, err
	}
	out := newOutput(len(s.ops), failed+replayFailed)
	ls.report(out)
	out.metric("trace.overhead_pct", 100*(median(traced)/median(untraced)-1), "%")
	reportFleetLayers(out, s.fl, measured, admissionWait)
	notef("serve-sessions traced: %d ops, %d searches replayed", len(s.ops), len(traced))
	return out, nil
}

// replay re-runs every successful append and generate offline; see
// runServeTraced. A one-shot generate has no session to warm-start from,
// and its replica is not joined (the middleware times session paths only),
// so it replays on a cache of its own.
func (s *serveRun) replay(ls *layerStats, replicaOf map[string]int) (untraced, traced []float64, failed int, err error) {
	var appends []*serveOp
	for _, op := range s.ops {
		if !op.req.kind.isRead() && op.req.err == nil {
			appends = append(appends, op)
		}
	}
	sort.SliceStable(appends, func(i, j int) bool { return appends[i].req.done.Before(appends[j].req.done) })
	type state struct {
		iface  *mctsui.Interface
		mirror mirrorResult
	}
	sessions := map[string]*state{}
	caches := map[int]*mctsui.Cache{}
	mirrorCaches := map[int]*eval.Cache{}
	for _, op := range appends {
		rep, st := -1, &state{}
		if op.req.kind == opAppend {
			rep = replicaOf[op.ev.Session]
			if sessions[op.ev.Session] == nil {
				sessions[op.ev.Session] = st
			}
			st = sessions[op.ev.Session]
		}
		if caches[rep] == nil {
			caches[rep], mirrorCaches[rep] = mctsui.NewCache(0), eval.NewCache(0)
		}
		log, err := parseLog(op.log)
		if err != nil {
			return nil, nil, 0, err
		}
		opts := []mctsui.Option{
			mctsui.WithCache(caches[rep]), mctsui.WithoutInitialCost(),
			mctsui.WithIterations(op.ev.Iterations), mctsui.WithTimeBudget(serveBudget), mctsui.WithSeed(op.ev.Seed),
		}
		req := mirrorSearch{iterations: op.ev.Iterations, seed: op.ev.Seed, timeBudget: serveBudget, noRef: true}
		if st.iface != nil {
			opts = append(opts, mctsui.WithWarmStart(st.iface), mctsui.WithSearchTree(st.iface.SearchTree()))
			req.warm, req.reuse = st.mirror.best, st.mirror.tree
		}
		start := time.Now()
		iface, err := mctsui.New(opts...).Generate(context.Background(), op.log)
		if err != nil {
			return nil, nil, 0, err
		}
		untraced = append(untraced, time.Since(start).Seconds())
		m, d, err := ls.traceSearch(log, req, mirrorCaches[rep])
		if err == nil {
			err = fidelity(iface, m)
		}
		if err == nil && iface.Cost() != op.req.resp.Cost {
			err = fmt.Errorf("replayed cost %v, live response %v", iface.Cost(), op.req.resp.Cost)
		}
		if err != nil {
			failed++
			warnf("replay of %s %s at %dus: %v", op.req.method, op.req.path, op.ev.AtUS, err)
		}
		traced = append(traced, d.Seconds())
		st.iface, st.mirror = iface, m
	}
	return untraced, traced, failed, nil
}

func parseLog(sqls []string) ([]*ast.Node, error) {
	log := make([]*ast.Node, len(sqls))
	for i, q := range sqls {
		n, err := sqlparser.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		log[i] = n
	}
	return log, nil
}
