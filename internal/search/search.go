// Package search implements the non-MCTS search strategies used as
// comparators in the evaluation: uniform random walks, greedy hill-climbing,
// beam search, and exhaustive breadth-first enumeration (feasible only for
// tiny inputs). All take their steps from the evaluation engine the MCTS
// search uses — eval.Engine.Neighbors and UniformMove apply only moves that
// pass the legality gate and the size cap (see SizeCap) — so they differ
// from it only in exploration policy.
//
// Every searcher is anytime: it takes a context.Context and returns its
// best-so-far result promptly when the context is cancelled or its deadline
// passes (Result.Interrupted reports that the budget was cut short).
package search

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/difftree"
	"repro/internal/eval"
)

// Objective scores a difftree; lower is better (interface cost).
type Objective func(d *difftree.Node) float64

// SizeCap is the shared state-size prune bound (the paper lists pruning as
// a needed optimization): states larger than 4x the initial tree are
// skipped, with a floor for tiny inputs. Core passes it as
// eval.Config.SizeCap to the engine every strategy searches with.
func SizeCap(init *difftree.Node) int {
	if cap := 4 * init.Size(); cap > 64 {
		return cap
	}
	return 64
}

// Result reports a search outcome.
type Result struct {
	Best        *difftree.Node
	BestCost    float64
	States      int  // states visited/generated; one objective call each
	Interrupted bool // the context ended the search early
}

// track updates the incumbent.
func (r *Result) track(d *difftree.Node, c float64) {
	if c < r.BestCost {
		r.Best, r.BestCost = d, c
	}
}

// cancelled polls ctx without blocking and records the interruption.
func (r *Result) cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		r.Interrupted = true
		return true
	default:
		return false
	}
}

// Random performs `walks` independent uniform random walks of length ≤ depth
// from init, evaluating every visited state.
func Random(ctx context.Context, init *difftree.Node, eng *eval.Engine, obj Objective, walks, depth int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	res := Result{Best: init, BestCost: obj(init), States: 1}
	for w := 0; w < walks; w++ {
		cur := init
		for s := 0; s < depth; s++ {
			if res.cancelled(ctx) {
				return res
			}
			next, ok := eng.UniformMove(cur, rng)
			if !ok {
				break
			}
			cur = next
			res.States++
			res.track(cur, obj(cur))
		}
	}
	return res
}

// Greedy hill-climbs: at each step it applies the single move whose
// resulting state has the lowest objective, stopping at a local optimum or
// after maxSteps.
func Greedy(ctx context.Context, init *difftree.Node, eng *eval.Engine, obj Objective, maxSteps int) Result {
	res := Result{Best: init, BestCost: obj(init), States: 1}
	cur, curCost := init, res.BestCost
	for s := 0; s < maxSteps; s++ {
		var best *difftree.Node
		bestCost := curCost
		for _, next := range eng.Neighbors(cur) {
			if res.cancelled(ctx) {
				return res
			}
			res.States++
			c := obj(next)
			if c < bestCost {
				best, bestCost = next, c
			}
		}
		if best == nil {
			break // local optimum
		}
		cur, curCost = best, bestCost
		res.track(cur, curCost)
	}
	return res
}

// scored is one beam candidate: the state, its cost, and its structural
// hash (unique within a generation thanks to the dedup set, which makes the
// hash a total deterministic tie-break for equal costs).
type scored struct {
	d *difftree.Node
	c float64
	h uint64
}

// selectBest sorts candidates by (cost, hash) and keeps the width best.
// Cost ties are broken on the structural hash rather than slice position, so
// the survivors are a deterministic function of the candidate *set* — and
// sort.Slice replaces the former O(n²) pairwise pass (generations of a few
// thousand candidates made that pass the beam's hot spot).
func selectBest(next []scored, width int) []scored {
	sort.Slice(next, func(i, j int) bool {
		if next[i].c != next[j].c {
			return next[i].c < next[j].c
		}
		return next[i].h < next[j].h
	})
	if len(next) > width {
		next = next[:width]
	}
	return next
}

// Beam keeps the `width` best states per generation for maxSteps
// generations, deduplicating by structural hash.
func Beam(ctx context.Context, init *difftree.Node, eng *eval.Engine, obj Objective, width, maxSteps int) Result {
	res := Result{Best: init, BestCost: obj(init), States: 1}
	frontier := []scored{{init, res.BestCost, difftree.Hash(init)}}
	seen := map[uint64]bool{difftree.Hash(init): true}

	for s := 0; s < maxSteps && len(frontier) > 0; s++ {
		var next []scored
		for _, st := range frontier {
			for _, nd := range eng.Neighbors(st.d) {
				if res.cancelled(ctx) {
					return res
				}
				h := difftree.Hash(nd)
				if seen[h] {
					continue
				}
				seen[h] = true
				res.States++
				c := obj(nd)
				res.track(nd, c)
				next = append(next, scored{nd, c, h})
			}
		}
		frontier = selectBest(next, width)
	}
	return res
}

// Exhaustive runs breadth-first enumeration with a visited set until the
// space is exhausted or maxStates states have been generated; it returns
// the optimum over everything visited (and reports completeness — false
// when the cap was hit or the context ended the sweep).
func Exhaustive(ctx context.Context, init *difftree.Node, eng *eval.Engine, obj Objective, maxStates int) (Result, bool) {
	res := Result{Best: init, BestCost: obj(init), States: 1}
	queue := []*difftree.Node{init}
	seen := map[uint64]bool{difftree.Hash(init): true}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range eng.Neighbors(cur) {
			if res.cancelled(ctx) {
				return res, false
			}
			h := difftree.Hash(next)
			if seen[h] {
				continue
			}
			seen[h] = true
			res.States++
			res.track(next, obj(next))
			if res.States >= maxStates {
				return res, false
			}
			queue = append(queue, next)
		}
	}
	return res, true
}
