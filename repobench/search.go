package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	mctsui "repro"
	"repro/internal/ast"
	"repro/internal/codec"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/workload"
)

// Search-workload parameters. A generation at the default 60 iterations
// takes about 15 s on a 2-CPU machine, too long to give a median within a
// run; 15 iterations keeps the default rollout depth, reward samples and
// rule set and gives several generations per run.
const (
	searchIterations = 15
	searchSeeds      = 3  // seeds of the warm set-up and of best_cost
	coldSeeds        = 64 // sdss-cold gives each generation the next of these
	setupRepeats     = 9  // set-up passes; setup_s is their median
)

// genReads is the read sequence that follows each published generation:
// the analyst class's interact and export weights per generate weight
// (3 interact gets and 2 exports), alternating, starting with a get.
func genReads() []opKind {
	m := analystClass().Mix
	gets := int(math.Round(m.Interact / m.Generate))
	exports := int(math.Round(m.Export / m.Generate))
	var kinds []opKind
	for gets > 0 || exports > 0 {
		if gets > 0 {
			kinds, gets = append(kinds, opGet), gets-1
		}
		if exports > 0 {
			kinds, exports = append(kinds, opExport), exports-1
		}
	}
	return kinds
}

// searchRun is the state one search-workload run accumulates.
type searchRun struct {
	cfg   *config
	sqls  []string
	log   []*ast.Node
	seeds []int64 // the first searchSeeds of seq
	seq   []int64 // search seeds derived from the benchmark seed
	reads []opKind
	fl    *fleet
	ords  ordinals

	genTimes []float64 // seconds per timed generation
	costs    map[int64]float64
	reqs     []*request // fleet operations of the timed window
	attempts int
	failures int
}

func newSearchRun(cfg *config) (*searchRun, error) {
	sqls := workload.SDSSLogSQL()
	log, err := parseLog(sqls)
	if err != nil {
		return nil, err
	}
	seq := deriveSeeds(cfg.seed, coldSeeds)
	return &searchRun{cfg: cfg, sqls: sqls, log: log, seeds: seq[:searchSeeds], seq: seq, reads: genReads(), costs: map[int64]float64{}}, nil
}

// seedAt is the search seed of the i-th timed generation: sdss-cold takes a
// new seed each time, so its median spans many search trajectories;
// sdss-warm cycles through the seeds its set-up cached.
func (s *searchRun) seedAt(i int, warm bool) int64 {
	if warm {
		return s.seeds[i%len(s.seeds)]
	}
	return s.seq[i%len(s.seq)]
}

// fail records one failed operation.
func (s *searchRun) fail(format string, args ...any) {
	s.failures++
	warnf(format, args...)
}

// generate runs one untraced mctsui generation with the given seed and cache.
func (s *searchRun) generate(seed int64, iterations int, cache *mctsui.Cache) (*mctsui.Interface, time.Duration, error) {
	g := mctsui.New(mctsui.WithIterations(iterations), mctsui.WithSeed(seed), mctsui.WithCache(cache))
	start := time.Now()
	iface, err := g.Generate(context.Background(), s.sqls)
	return iface, time.Since(start), err
}

// checkGeneration validates a generation and its determinism: a seed seen
// before (on a cold or a warm cache) must give the same cost.
func (s *searchRun) checkGeneration(seed int64, iface *mctsui.Interface) {
	if err := checkInterface(iface, s.sqls); err != nil {
		s.fail("seed %d: %v", seed, err)
		return
	}
	if prev, ok := s.costs[seed]; ok && prev != iface.Cost() {
		s.fail("seed %d: cost %v differs from the earlier %v on the same seed", seed, iface.Cost(), prev)
		return
	}
	s.costs[seed] = iface.Cost()
}

// publish imports the interface into a fleet session and reads it back with
// the given reads. Requests are sent one after another on an otherwise idle
// fleet; each is due when it is sent. A collection first clears the garbage
// the search left, so the requests do not time its collection and the next
// search starts from the same heap state.
func (s *searchRun) publish(session string, iface *mctsui.Interface, reads []opKind, keep bool) {
	runtime.GC()
	data, err := iface.MarshalJSON()
	if err != nil {
		s.fail("marshal: %v", err)
		return
	}
	imp := &request{kind: opImport, session: session, due: time.Now()}
	s.fl.do(imp, &s.ords, nil, data)
	s.record(imp, keep)
	if imp.err == nil && (!imp.resp.Valid || imp.resp.Cost != iface.Cost()) {
		s.fail("import of %s: valid=%v cost %v, want %v", session, imp.resp.Valid, imp.resp.Cost, iface.Cost())
	}
	for _, kind := range reads {
		r := &request{kind: kind, session: session, due: time.Now()}
		s.fl.do(r, &s.ords, nil, nil)
		s.record(r, keep)
	}
}

// record checks a fleet request and, for the timed window, keeps it.
func (s *searchRun) record(r *request, keep bool) {
	var err error
	if r.kind.isRead() {
		err = checkRead(r, s.sqls)
	} else {
		err = r.err
	}
	if err != nil {
		s.fail("%s %s: %v", r.method, r.path, err)
	}
	if keep {
		s.attempts++
		s.reqs = append(s.reqs, r)
	}
}

// setup starts the fleet and runs one 1-iteration warm-up generation with
// its publish, setupRepeats times, and returns the median pass time. Both
// search workloads do this; sdss-warm then fills its cache (fillCache),
// which is timed apart.
func (s *searchRun) setup() (float64, error) {
	var passes []float64
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
		s.fl, s.ords = fl, ordinals{}
		iface, _, err := s.generate(warmupSeed, 1, mctsui.NewCache(0))
		if err != nil {
			return 0, err
		}
		s.publish("warmup", iface, []opKind{opGet, opExport}, false)
		passes = append(passes, time.Since(start).Seconds())
	}
	return median(passes), nil
}

// fillCache is sdss-warm's cache fill. Each seed first runs on a fresh
// cache, which records its reference cost, and then on the shared cache,
// which must reach that cost too; the timed searches repeat the shared-cache
// runs. It returns the fill time.
func (s *searchRun) fillCache(shared *mctsui.Cache) (float64, error) {
	start := time.Now()
	for _, seed := range s.seeds {
		for _, cache := range []*mctsui.Cache{mctsui.NewCache(0), shared} {
			iface, _, err := s.generate(seed, s.cfg.searchIters, cache)
			if err != nil {
				return 0, err
			}
			s.checkGeneration(seed, iface)
		}
	}
	fill := time.Since(start).Seconds()
	notef("sdss-warm: cache filled in %.2f s (%d seeds, each on a fresh and on the shared cache)", fill, len(s.seeds))
	return fill, nil
}

// prepare runs set-up and, for sdss-warm (a non-nil shared cache), the
// cache fill. The caller closes s.fl once it is set, also on error.
func (s *searchRun) prepare(shared *mctsui.Cache) (setup float64, err error) {
	if setup, err = s.setup(); err != nil || shared == nil {
		return setup, err
	}
	_, err = s.fillCache(shared)
	return setup, err
}

// runSearchWorkload runs sdss-cold (warm false) or sdss-warm (warm true)
// with tracing off.
func runSearchWorkload(cfg *config, warm bool) (*output, error) {
	s, err := newSearchRun(cfg)
	if err != nil {
		return nil, err
	}
	var shared *mctsui.Cache
	if warm {
		shared = mctsui.NewCache(0)
	}
	setup, err := s.prepare(shared)
	if s.fl != nil {
		defer s.fl.close()
	}
	if err != nil {
		return nil, err
	}

	var last *mctsui.Interface
	var lastCache *mctsui.Cache
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; i < len(s.seeds) || time.Now().Before(deadline); i++ {
		seed := s.seedAt(i, warm)
		cache := shared
		if !warm {
			cache = mctsui.NewCache(0)
		}
		s.attempts++
		iface, d, err := s.generate(seed, s.cfg.searchIters, cache)
		if err != nil {
			s.fail("seed %d: %v", seed, err)
			continue
		}
		s.genTimes = append(s.genTimes, d.Seconds())
		s.checkGeneration(seed, iface)
		s.publish(fmt.Sprintf("gen-%d", i%len(s.seeds)), iface, s.reads, true)
		last, lastCache = iface, cache
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last) // held through the heap measurement
	runtime.KeepAlive(lastCache)

	out := newOutput(s.attempts, s.failures)
	readMS, reads := readP50MS(s.reqs)
	out.metric("generate_p50_s", median(s.genTimes), "s")
	out.metric("read_p50_ms", readMS, "ms")
	out.metric("best_cost", s.meanCost(), "cost")
	out.metric("heap_live_mb", heap, "MB")
	out.metric("setup_s", setup, "s")
	notef("%s: %d generations, %d reads, %d failed", cfg.workload, len(s.genTimes), reads, s.failures)
	return out, nil
}

// meanCost is the mean best cost over the run's distinct seeds, which is
// deterministic per benchmark seed.
func (s *searchRun) meanCost() float64 {
	var cs []float64
	for _, seed := range s.seeds {
		if c, ok := s.costs[seed]; ok {
			cs = append(cs, c)
		}
	}
	return mean(cs)
}

// --- Traced run -------------------------------------------------------------

// treeHash decodes an interface's serialized difftree and hashes it, so the
// fidelity check compares structural hashes through the public codec.
func treeHash(iface *mctsui.Interface) (uint64, error) {
	data, err := iface.MarshalJSON()
	if err != nil {
		return 0, err
	}
	d, _, _, err := codec.Unmarshal(data)
	if err != nil {
		return 0, err
	}
	return difftree.Hash(d), nil
}

// fidelity compares the mirror's result with the untraced mctsui result.
func fidelity(iface *mctsui.Interface, m mirrorResult) error {
	h, err := treeHash(iface)
	if err != nil {
		return err
	}
	if mh := difftree.Hash(m.best); mh != h || m.cost != iface.Cost() {
		return fmt.Errorf("mirror drifted from core: hash %016x cost %v, core hash %016x cost %v", mh, m.cost, h, iface.Cost())
	}
	return nil
}

// runSearchTraced runs a search workload through the traced mirror. Each
// timed step runs the untraced mctsui search and then the traced mirror of
// the same search, checks that they agree, and publishes the result through
// the traced fleet.
func runSearchTraced(cfg *config, warm bool) (*output, error) {
	s, err := newSearchRun(cfg)
	if err != nil {
		return nil, err
	}
	var shared *mctsui.Cache
	if warm {
		shared = mctsui.NewCache(0)
	}
	_, err = s.prepare(shared)
	if s.fl != nil {
		defer s.fl.close()
	}
	if err != nil {
		return nil, err
	}
	var mirrorCache *eval.Cache
	if warm {
		// The mirror's engine needs an eval.Cache, which mctsui.Cache does
		// not expose: fill one the same way, untraced, and check each fill
		// search against the seed's fresh-cache reference cost.
		mirrorCache = eval.NewCache(0)
		var scratch layerCounts
		for _, seed := range s.seeds {
			m, err := runMirror(s.log, mirrorSearch{iterations: s.cfg.searchIters, seed: seed}, mirrorCache, nil, &scratch)
			if err != nil {
				return nil, err
			}
			if m.cost != s.costs[seed] {
				s.fail("seed %d: mirror cache fill reached cost %v, fresh-cache reference %v", seed, m.cost, s.costs[seed])
			}
		}
	}

	ls := newLayerStats()
	served0, wait0, err := s.fl.admission(context.Background())
	if err != nil {
		return nil, err
	}
	var untraced, traced []float64
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; i < len(s.seeds) || time.Now().Before(deadline); i++ {
		seed := s.seedAt(i, warm)
		cache, mc := shared, mirrorCache
		if !warm {
			cache, mc = mctsui.NewCache(0), eval.NewCache(0)
		}
		s.attempts++
		iface, d, err := s.generate(seed, s.cfg.searchIters, cache)
		if err != nil {
			s.fail("seed %d: %v", seed, err)
			continue
		}
		untraced = append(untraced, d.Seconds())
		s.checkGeneration(seed, iface)
		m, d, err := ls.traceSearch(s.log, mirrorSearch{iterations: s.cfg.searchIters, seed: seed}, mc)
		if err == nil {
			err = fidelity(iface, m)
		}
		if err != nil {
			s.fail("seed %d: %v", seed, err)
		}
		traced = append(traced, d.Seconds())
		s.publish(fmt.Sprintf("gen-%d", i%len(s.seeds)), iface, s.reads, true)
	}
	served1, wait1, err := s.fl.admission(context.Background())
	if err != nil {
		return nil, err
	}
	out := newOutput(s.attempts, s.failures)
	ls.report(out)
	out.metric("trace.overhead_pct", 100*(median(traced)/median(untraced)-1), "%")
	reportFleetLayers(out, s.fl, s.reqs, ratio(wait1-wait0, float64(served1-served0)))
	notef("%s traced: %d searches, fidelity checked on each", cfg.workload, len(traced))
	return out, nil
}

// deriveSeeds expands the benchmark seed into n distinct positive search
// seeds (splitmix64).
func deriveSeeds(seed int64, n int) []int64 {
	out := make([]int64, 0, n)
	x := uint64(seed)
	seen := map[int64]bool{}
	for len(out) < n {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s := int64(z%(math.MaxInt32-1)) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// warmupSeed seeds the set-up warm-up searches. It is fixed, so set-up does
// the same work whatever the benchmark seed.
const warmupSeed = 1
