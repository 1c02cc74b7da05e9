package main

import (
	"sort"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Spans are
// recorded only by the benchmark's own wrappers around calls into each
// layer's public functions.
type spanKind uint8

const (
	spanSearch    spanKind = iota // mcts.Search
	spanNeighbors                 // Domain.Neighbors (expansion)
	spanRollout                   // Sampler.RandomNeighbor (one rollout step)
	spanReward                    // Domain.Reward
	spanMoves                     // eval.Engine.Moves
	spanLegal                     // eval.Engine.LegalState (rollout probe)
	spanCost                      // eval.Engine.StateCost
	spanPools                     // eval.Engine.PathPools
	spanCandidate                 // rules.CandidateArena
	spanApply                     // rules.Candidate / rules.ApplyMove (successor rebuild)
	spanHash                      // difftree.Hash
	spanFallback                  // full-enumeration fallback of a rollout step
	spanExtract                   // core.BestInterface
	numSpanKinds
)

// span is one recorded interval. parent indexes the enclosing span in the
// same tracer, -1 for a root.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64 // nanoseconds since the tracer's base
}

// tracer records spans into a slice preallocated once per run and reused
// across searches, so recording a span costs two clock reads and no
// allocation. It is used from one goroutine. A nil *tracer records nothing.
type tracer struct {
	base  time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of kind k nested in the innermost open span.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, parent: t.open, start: t.now()})
	i := int32(len(t.spans) - 1)
	t.open = i
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = t.now()
	t.open = t.spans[i].parent
}

// reset drops every recorded span, keeping the storage.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.open = -1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are merged
// first, so concurrent children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// kindTotals sums span durations per kind and the self time of every
// mcts.Search span.
func kindTotals(spans []span) (totals [numSpanKinds]int64, searchSelf int64) {
	for _, s := range spans {
		totals[s.kind] += s.end - s.start
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.kind == spanSearch {
			searchSelf += self[i]
		}
	}
	return totals, searchSelf
}
