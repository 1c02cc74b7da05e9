package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/ast"
	"repro/internal/eval"
)

// spanCapacity preallocates the span slots of one traced search: a
// 15-iteration SDSS search records about 500k spans.
const spanCapacity = 1 << 20

// layerStats accumulates per-layer totals over the traced searches of a
// run.
type layerStats struct {
	tr         *tracer
	c          layerCounts
	totals     [numSpanKinds]int64
	searchSelf int64

	allocBytes, gcCycles uint64
	gcPauseNs            uint64
}

func newLayerStats() *layerStats { return &layerStats{tr: newTracer(spanCapacity)} }

// runtimeCounters reads the allocation and GC-cycle totals from
// runtime/metrics and the cumulative GC pause time.
func runtimeCounters() (alloc, cycles, pauseNs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), m.PauseTotalNs
}

// traceSearch runs one traced mirrored search and folds its spans and
// counts into the totals; it returns the result and the search's wall time.
func (l *layerStats) traceSearch(log []*ast.Node, req mirrorSearch, cache *eval.Cache) (mirrorResult, time.Duration, error) {
	l.tr.reset()
	a0, c0, p0 := runtimeCounters()
	start := time.Now()
	res, err := runMirror(log, req, cache, l.tr, &l.c)
	d := time.Since(start)
	a1, c1, p1 := runtimeCounters()
	l.allocBytes += a1 - a0
	l.gcCycles += c1 - c0
	l.gcPauseNs += p1 - p0
	totals, self := kindTotals(l.tr.spans)
	for k, v := range totals {
		l.totals[k] += v
	}
	l.searchSelf += self
	return res, d, err
}

// report adds the search-layer metrics: times are seconds per search,
// calls are per search, rates are over the run's calls.
func (l *layerStats) report(out *output) {
	n := float64(max(l.c.searches, 1))
	sec := func(k spanKind) float64 { return float64(l.totals[k]) / 1e9 / n }
	c := &l.c
	out.metric("eval.moves_s", sec(spanMoves), "s")
	out.metric("eval.moves.calls", float64(c.movesCalls)/n, "count")
	out.metric("eval.moves.miss_rate", ratio(float64(c.movesMisses), float64(c.movesCalls)), "ratio")
	out.metric("eval.legal_s", sec(spanLegal), "s")
	out.metric("eval.legal.calls", float64(c.legalCalls)/n, "count")
	out.metric("eval.legal.miss_rate", ratio(float64(c.legalMisses), float64(c.legalCalls)), "ratio")
	out.metric("eval.legal.legal_rate", ratio(float64(c.legalTrue), float64(c.legalCalls)), "ratio")
	out.metric("core.rollout.fallback_rate", ratio(float64(c.fallback), float64(c.rolloutCalls)), "ratio")
	out.metric("core.rollout.fallback_s", sec(spanFallback), "s")
	out.metric("rules.candidate_s", sec(spanCandidate), "s")
	out.metric("rules.candidate.calls", float64(c.candidateCalls)/n, "count")
	out.metric("rules.candidate.match_rate", ratio(float64(c.candidateMatches), float64(c.candidateCalls)), "ratio")
	out.metric("core.rollout.calls", float64(c.rolloutCalls)/n, "count")
	out.metric("core.rollout.draws_per_call", ratio(float64(c.rolloutDraws), float64(c.rolloutCalls)), "count")
	out.metric("rules.apply_s", sec(spanApply), "s")
	out.metric("eval.cost_s", sec(spanCost), "s")
	out.metric("eval.cost.calls", float64(c.costCalls)/n, "count")
	out.metric("eval.cost.miss_rate", ratio(float64(c.costMisses), float64(c.costCalls)), "ratio")
	out.metric("eval.pools_s", sec(spanPools), "s")
	out.metric("difftree.hash_s", sec(spanHash), "s")
	out.metric("mcts.self_s", float64(l.searchSelf)/1e9/n, "s")
	out.metric("eval.cache.hit_rate", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), "ratio")
	out.metric("eval.cache.entries", float64(c.cacheEntries), "count")
	out.metric("core.extract_s", sec(spanExtract), "s")
	out.metric("go.alloc_mb_per_iter", ratio(float64(l.allocBytes)/(1<<20), float64(c.iterations)), "MB")
	out.metric("go.gc_cycles", float64(l.gcCycles)/n, "count")
	out.metric("go.gc_pause_s", float64(l.gcPauseNs)/1e9/n, "s")
}

// reportFleetLayers adds the serving-layer metrics from the client's
// requests joined with the replicas' handler spans. load.read_ms_p90 and
// load.append_ms_p90 are the client-side tails, timed from the scheduled
// send; their spread between seeds on serve-sessions is too wide for an
// end-to-end bound, so they are reported here. A write is an append on
// serve-sessions and the import that publishes each generation on the
// search workloads.
func reportFleetLayers(out *output, fl *fleet, reqs []*request, admissionWaitMS float64) {
	var hop, readH, writeH, late, connWait, reads, writes []float64
	sessions := map[string]int{} // session -> replica
	for _, j := range joinHandlers(reqs, fl.hlog.records()) {
		if j.req.err != nil {
			continue
		}
		handler := j.h.end.Sub(j.h.start)
		hop = append(hop, ms(j.req.done.Sub(j.req.sent)-handler))
		if j.req.kind.isRead() {
			readH = append(readH, ms(handler))
		} else {
			writeH = append(writeH, ms(handler))
		}
		sessions[j.req.session] = j.h.replica
	}
	for _, r := range reqs {
		late = append(late, ms(r.late()))
		connWait = append(connWait, ms(r.connWait))
		if r.err != nil {
			continue
		}
		if r.kind.isRead() {
			reads = append(reads, ms(r.latency()))
		} else {
			writes = append(writes, ms(r.latency()))
		}
	}
	perReplica := map[int]int{}
	top := 0
	for _, rep := range sessions {
		perReplica[rep]++
		top = max(top, perReplica[rep])
	}
	out.tailMetric("router.hop_ms_p50", hop, 50, "ms")
	out.tailMetric("server.read_ms_p90", readH, 90, "ms")
	out.tailMetric("server.append_ms_p50", writeH, 50, "ms")
	out.tailMetric("server.append_ms_p90", writeH, 90, "ms")
	out.metric("server.admission_wait_ms_mean", admissionWaitMS, "ms")
	out.metric("router.replica_share", ratio(float64(top), float64(len(sessions))), "ratio")
	out.tailMetric("load.read_ms_p90", reads, 90, "ms")
	out.tailMetric("load.append_ms_p90", writes, 90, "ms")
	out.tailMetric("load.late_ms_p90", late, 90, "ms")
	out.tailMetric("load.conn_wait_ms_p90", connWait, 90, "ms")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
