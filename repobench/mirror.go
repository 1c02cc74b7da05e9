package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/mcts"
	"repro/internal/rules"
	"repro/internal/search"
)

// The traced run drives mcts.Search through the domain below, which mirrors
// the core package's MCTS domain call for call using public functions only,
// so every layer boundary can be wrapped in a span. The fidelity check
// (same best difftree hash and cost as the untraced mctsui call, for every
// seed) fails the run when the mirror drifts from core.

// rolloutTries is the number of random (rule, node) draws a rollout step
// makes before falling back to full enumeration, as in core.
const rolloutTries = 48

// layerCounts are the per-layer work counters of traced searches. Hits and
// misses come from the eval.Cache counters read around each call.
type layerCounts struct {
	searches, iterations                 int
	movesCalls, movesMisses              int
	legalCalls, legalMisses, legalTrue   int
	costCalls, costMisses                int
	poolsCalls                           int
	candidateCalls, candidateMatches     int
	rolloutCalls, rolloutDraws, fallback int
	cacheHits, cacheMisses               int64
	cacheEntries                         int64
}

// mstate is the mirror's mcts.State: a difftree and its structural hash.
type mstate struct {
	d *difftree.Node
	h uint64
}

func (s mstate) Hash() uint64 { return s.h }

// mdomain mirrors core's domain: Neighbors, RandomNeighbor and Reward over
// one eval.Engine, with core's run-local reward memo.
type mdomain struct {
	eng     *eval.Engine
	cache   *eval.Cache
	ruleSet []rules.Rule
	scale   float64
	rewards map[uint64]float64
	arena   difftree.SpineArena
	tr      *tracer
	c       *layerCounts
	last    eval.Stats
}

// evalDone closes an eval span and reports whether the call missed the
// cache (any miss recorded since the previous read).
func (d *mdomain) evalDone(sp int32) (missed bool) {
	d.tr.end(sp)
	st := d.cache.Stats()
	missed = st.Misses > d.last.Misses
	d.last = st
	return missed
}

func (d *mdomain) moves(t *difftree.Node) []rules.Move {
	sp := d.tr.begin(spanMoves)
	ms := d.eng.Moves(t)
	d.c.movesCalls++
	if d.evalDone(sp) {
		d.c.movesMisses++
	}
	return ms
}

func (d *mdomain) hash(t *difftree.Node) uint64 {
	sp := d.tr.begin(spanHash)
	h := difftree.Hash(t)
	d.tr.end(sp)
	return h
}

// successors applies every legal move, as eval.Engine.Neighbors does.
func (d *mdomain) successors(t *difftree.Node) []mcts.State {
	ms := d.moves(t)
	out := make([]mcts.State, 0, len(ms))
	for _, m := range ms {
		sp := d.tr.begin(spanApply)
		next, err := rules.ApplyMove(t, m)
		d.tr.end(sp)
		if err != nil {
			continue
		}
		out = append(out, mstate{d: next, h: d.hash(next)})
	}
	return out
}

// Neighbors implements mcts.Domain.
func (d *mdomain) Neighbors(s mcts.State) []mcts.State {
	sp := d.tr.begin(spanNeighbors)
	defer d.tr.end(sp)
	return d.successors(s.(mstate).d)
}

// RandomNeighbor implements mcts.Sampler with core's draw sequence: up to
// rolloutTries (rule, path) draws from the state's per-kind path pools,
// returning the first legal rewrite, else a uniform pick from the full move
// set.
func (d *mdomain) RandomNeighbor(s mcts.State, rng *rand.Rand) (mcts.State, bool) {
	sp := d.tr.begin(spanRollout)
	defer d.tr.end(sp)
	d.c.rolloutCalls++
	cur := s.(mstate).d
	psp := d.tr.begin(spanPools)
	byKind := d.eng.PathPools(cur)
	d.c.poolsCalls++
	d.evalDone(psp)
	for i := 0; i < rolloutTries; i++ {
		d.c.rolloutDraws++
		r := d.ruleSet[rng.Intn(len(d.ruleSet))]
		kinds := rules.MatchKinds[r.Name()]
		total := 0
		for k := difftree.All; k <= difftree.Multi; k++ {
			if kinds == nil || kinds[k] {
				total += len(byKind[k])
			}
		}
		if total == 0 {
			continue
		}
		idx := rng.Intn(total)
		var p difftree.Path
		for k := difftree.All; k <= difftree.Multi; k++ {
			if kinds != nil && !kinds[k] {
				continue
			}
			if idx < len(byKind[k]) {
				p = byKind[k][idx]
				break
			}
			idx -= len(byKind[k])
		}
		d.arena.Reset()
		csp := d.tr.begin(spanCandidate)
		next, ok := rules.CandidateArena(cur, p, r, &d.arena)
		d.tr.end(csp)
		d.c.candidateCalls++
		if !ok {
			continue
		}
		d.c.candidateMatches++
		lsp := d.tr.begin(spanLegal)
		legal := d.eng.LegalState(next)
		d.c.legalCalls++
		if d.evalDone(lsp) {
			d.c.legalMisses++
		}
		if !legal {
			continue
		}
		d.c.legalTrue++
		asp := d.tr.begin(spanApply)
		kept, ok := rules.Candidate(cur, p, r)
		d.tr.end(asp)
		if !ok {
			continue
		}
		d.arena.Reset()
		return mstate{d: kept, h: d.hash(kept)}, true
	}
	d.arena.Reset()
	d.c.fallback++
	fsp := d.tr.begin(spanFallback)
	ns := d.successors(cur)
	d.tr.end(fsp)
	if len(ns) == 0 {
		return nil, false
	}
	return ns[rng.Intn(len(ns))], true
}

// Reward implements mcts.Domain: 1/(1 + cost/scale), memoized per run.
func (d *mdomain) Reward(s mcts.State) float64 {
	sp := d.tr.begin(spanReward)
	defer d.tr.end(sp)
	st := s.(mstate)
	if r, ok := d.rewards[st.h]; ok {
		return r
	}
	c := d.stateCost(st.d)
	r := 0.0
	if !math.IsInf(c, 1) {
		r = 1.0 / (1.0 + c/d.scale)
	}
	d.rewards[st.h] = r
	return r
}

func (d *mdomain) stateCost(t *difftree.Node) float64 {
	sp := d.tr.begin(spanCost)
	c := d.eng.StateCost(t)
	d.c.costCalls++
	if d.evalDone(sp) {
		d.c.costMisses++
	}
	return c
}

// mirrorSearch is one search request, with the mctsui defaults the
// benchmark's own calls use.
type mirrorSearch struct {
	iterations int
	seed       int64
	timeBudget time.Duration // 0 = none
	// warm and reuse mirror mctsui.WithWarmStart and WithSearchTree; noRef
	// mirrors mctsui.WithoutInitialCost.
	warm  *difftree.Node
	reuse *mcts.Tree
	noRef bool
}

// mirrorResult is the outcome of one mirrored search.
type mirrorResult struct {
	best *difftree.Node
	cost float64
	tree *mcts.Tree
}

// runMirror runs one search the way core.Generate does for the sequential
// MCTS strategy, memoizing into cache and recording spans into tr (nil for
// an untraced run) and counts into c.
func runMirror(log []*ast.Node, req mirrorSearch, cache *eval.Cache, tr *tracer, c *layerCounts) (mirrorResult, error) {
	init, err := difftree.Initial(log)
	if err != nil {
		return mirrorResult{}, err
	}
	model := cost.Model{NavUnit: core.DefaultNavUnit, Screen: layout.Wide}
	set := rules.All()
	eng := eval.New(eval.Config{
		Log:     log,
		Model:   model,
		Samples: core.DefaultRewardSamples,
		Rules:   set,
		SizeCap: search.SizeCap(init),
		Seed:    req.seed,
	}, cache)
	d := &mdomain{eng: eng, cache: cache, ruleSet: set, rewards: map[uint64]float64{}, tr: tr, c: c, last: cache.Stats()}
	before := d.last
	// core scores a second, content-identical initial tree for the reward
	// scale.
	init2, err := difftree.Initial(log)
	if err != nil {
		return mirrorResult{}, err
	}
	if s := d.stateCost(init2); !math.IsInf(s, 1) && s > 0 {
		d.scale = s
	} else {
		d.scale = 10
	}
	root := init
	if req.warm != nil {
		lsp := tr.begin(spanLegal)
		ok := eng.LegalState(req.warm)
		d.evalDone(lsp)
		if ok {
			root = req.warm
		}
	}
	sp := tr.begin(spanSearch)
	res := mcts.Search(context.Background(), d, mstate{d: root, h: d.hash(root)}, mcts.Config{
		C:                core.DefaultExplorationC,
		MaxRolloutDepth:  core.DefaultRolloutDepth,
		Iterations:       req.iterations,
		TimeBudget:       req.timeBudget,
		Seed:             req.seed,
		TreeWorkers:      1,
		EvaluateChildren: true,
		Reuse:            req.reuse,
	})
	tr.end(sp)
	if res.Interrupted {
		return mirrorResult{}, fmt.Errorf("mirrored search interrupted")
	}
	best := res.Best.(mstate).d
	esp := tr.begin(spanExtract)
	_, bd, _ := core.BestInterface(best, log, model, core.DefaultEnumLimit, req.seed)
	tr.end(esp)
	if !req.noRef {
		if d.hash(best) != d.hash(init) {
			esp := tr.begin(spanExtract)
			core.BestInterface(init, log, model, core.DefaultEnumLimit, req.seed)
			tr.end(esp)
		}
		d.moves(init)
	}
	after := cache.Stats()
	c.searches++
	c.iterations += res.Iterations
	c.cacheHits += after.Hits - before.Hits
	c.cacheMisses += after.Misses - before.Misses
	c.cacheEntries = after.Entries
	return mirrorResult{best: best, cost: bd.Total(), tree: res.Tree}, nil
}
