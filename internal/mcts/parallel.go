// Tree-parallel MCTS: Config.TreeWorkers goroutines share one search tree.
//
// The scheme is the classic virtual-loss design: while a worker is inside an
// iteration, every node on its selection path carries a virtual loss — an
// extra visit that contributes zero reward — so concurrent workers see
// in-flight paths as less attractive and diversify instead of piling onto
// the same leaf. Expansion is guarded per node (a mutex arbitrates the one
// materialization; an atomic flag publishes the children), node statistics
// are updated with atomic adds (a CAS loop for the float64 reward total),
// and each new child is claimed for simulation exactly once via CAS, so the
// "one random walk from every new child" contract of the sequential search
// carries over. Leaf evaluations all drain through the Domain, whose
// concurrency safety in this codebase comes from the internal/eval
// transposition cache.
//
// Tree-parallel results are not bit-reproducible across runs — the OS
// scheduler decides which states get visited — but every accounting
// invariant is: after the workers join, no virtual loss remains, each node's
// visit count equals the backpropagations through it, and the root's visit
// count equals the number of completed walks. The parallel_test.go suite
// pins those invariants under -race.
package mcts

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// pnode is the shared-tree node. children is written once under mu and
// published by the expanded flag (atomic store-release / load-acquire), after
// which it is immutable; the statistics are plain atomics.
type pnode struct {
	state  State
	parent *pnode

	mu       sync.Mutex  // guards the one-time materialization of children
	expanded atomic.Bool // published after children is fully written
	children []*pnode

	visits    atomic.Int64  // completed backpropagations through this node
	totalBits atomic.Uint64 // math.Float64bits of the summed reward
	vloss     atomic.Int64  // in-flight selection paths through this node
	simulated atomic.Bool   // claimed for its one expansion-time rollout
}

func (n *pnode) total() float64 { return math.Float64frombits(n.totalBits.Load()) }

// addTotal accumulates a reward into the node's float total via CAS.
func (n *pnode) addTotal(r float64) {
	for {
		old := n.totalBits.Load()
		if n.totalBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+r)) {
			return
		}
	}
}

// uctP is uct over the shared tree with the virtual-loss penalty applied:
// each in-flight path through a node counts as a visit with zero reward,
// lowering both the exploitation term and the exploration bonus for nodes
// other workers are currently inside.
func uctP(n *pnode, c float64) float64 {
	eff := n.visits.Load() + n.vloss.Load()
	if eff == 0 {
		return math.Inf(1)
	}
	exploit := n.total() / float64(eff)
	if n.parent == nil {
		return exploit
	}
	N := n.parent.visits.Load() + n.parent.vloss.Load()
	if N < 1 {
		N = 1
	}
	return exploit + c*math.Sqrt(math.Log(float64(N))/float64(eff))
}

// backpropP adds the reward to every node up to the root.
func backpropP(n *pnode, r float64) {
	for ; n != nil; n = n.parent {
		n.visits.Add(1)
		n.addTotal(r)
	}
}

// psearcher is the shared state of one tree-parallel search.
type psearcher struct {
	d        Domain
	cfg      Config
	ctx      context.Context
	deadline time.Time

	claimed   atomic.Int64 // iterations handed out (bounds the shared budget)
	completed atomic.Int64 // iterations that ran to completion
	expanded  atomic.Int64
	rollouts  atomic.Int64
	evals     atomic.Int64

	mu         sync.Mutex // guards best/bestReward and serializes Progress
	best       State
	bestReward float64
}

func (s *psearcher) cancelled() bool {
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

func (s *psearcher) stopped() bool {
	if s.cancelled() {
		return true
	}
	//mctsvet:allow wallclock -- anytime TimeBudget deadline check: stops iteration, never feeds a reward or move choice
	return !s.deadline.IsZero() && !time.Now().Before(s.deadline)
}

// eval scores a state and folds it into the shared best.
func (s *psearcher) eval(st State) float64 {
	s.evals.Add(1)
	r := s.d.Reward(st)
	s.mu.Lock()
	if r > s.bestReward {
		s.bestReward = r
		s.best = st
	}
	s.mu.Unlock()
	return r
}

// snapshot assembles a Result from the shared counters. Caller must hold
// s.mu when a consistent best is required.
func (s *psearcher) snapshotLocked() Result {
	return Result{
		Best:       s.best,
		BestReward: s.bestReward,
		Iterations: int(s.completed.Load()),
		Expanded:   int(s.expanded.Load()),
		Rollouts:   int(s.rollouts.Load()),
		Evals:      int(s.evals.Load()),
	}
}

// searchParallel runs the tree-parallel search and returns the result plus
// the shared root (exposed for the accounting-invariant tests).
func searchParallel(ctx context.Context, d Domain, root State, cfg Config, deadline time.Time) (Result, *pnode) {
	s := &psearcher{d: d, cfg: cfg, ctx: ctx, deadline: deadline, bestReward: math.Inf(-1)}
	rootNode := &pnode{state: root}
	s.best = root
	s.bestReward = s.eval(root)

	var wg sync.WaitGroup
	for w := 0; w < cfg.TreeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a distinct rollout RNG stream derived from the
			// base seed (golden-ratio stride, as the root-parallel scheme).
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w+1)*0x9e3779b9))
			s.worker(rootNode, rng)
		}(w)
	}
	wg.Wait()

	s.mu.Lock()
	res := s.snapshotLocked()
	s.mu.Unlock()
	res.Interrupted = s.cancelled()
	return res, rootNode
}

// worker claims iterations from the shared budget until it is exhausted or
// the search is stopped.
func (s *psearcher) worker(root *pnode, rng *rand.Rand) {
	for {
		if s.stopped() {
			return
		}
		if s.cfg.Iterations > 0 && !s.claim() {
			return
		}
		worked, cut := s.iterate(root, rng)
		switch {
		case worked:
			s.completed.Add(1)
			if s.cfg.Progress != nil {
				// Snapshot under the lock, deliver outside it: a slow
				// Progress consumer must not stall the other workers, whose
				// every eval() takes the same mutex. With TreeWorkers > 1
				// the callback can therefore run concurrently; callers that
				// need serialization wrap it themselves (core does).
				s.mu.Lock()
				snap := s.snapshotLocked()
				s.mu.Unlock()
				s.cfg.Progress(snap)
			}
		case !cut && s.cfg.Iterations > 0:
			// A contention no-op (every child was already claimed by a
			// concurrent worker): nothing was simulated, so the iteration
			// must not be counted — refund the budget claim so another pass
			// does the real work. The window is transient (it needs an
			// expansion racing a selection), so this cannot spin: a settled
			// tree always lands on an unexpanded or terminal node.
			s.claimed.Add(-1)
		}
	}
}

// claim takes one iteration from the shared budget, reporting false when
// none is left. The count never overshoots the budget: a worker that
// refunds its claim after a contention no-op retries the slot itself, and
// an overshoot left behind by a worker that already returned would make
// that retry fail and lose the iteration.
func (s *psearcher) claim() bool {
	for {
		c := s.claimed.Load()
		if c >= int64(s.cfg.Iterations) {
			return false
		}
		if s.claimed.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// iterate is one select-expand-simulate-backprop cycle on the shared tree.
// worked reports that the cycle performed at least one rollout or terminal
// backpropagation (a cycle that found all children claimed by concurrent
// workers did nothing countable); cut reports that cancellation or the
// deadline ended the cycle early.
func (s *psearcher) iterate(root *pnode, rng *rand.Rand) (worked, cut bool) {
	// Selection: descend by virtual-loss UCT, marking the path in flight so
	// concurrent workers steer elsewhere.
	n := root
	n.vloss.Add(1)
	path := []*pnode{root}
	for n.expanded.Load() {
		children := n.children // immutable once expanded is set
		if len(children) == 0 {
			break
		}
		best := children[0]
		bestScore := uctP(best, s.cfg.C)
		for _, c := range children[1:] {
			if sc := uctP(c, s.cfg.C); sc > bestScore {
				best, bestScore = c, sc
			}
		}
		n = best
		n.vloss.Add(1)
		path = append(path, n)
	}
	defer func() {
		for _, m := range path {
			m.vloss.Add(-1)
		}
	}()

	// Expansion: exactly one worker materializes the children; late arrivals
	// fall through to simulation against the published slice.
	if !n.expanded.Load() {
		n.mu.Lock()
		if !n.expanded.Load() {
			seen := map[uint64]bool{n.state.Hash(): true}
			var children []*pnode
			for _, st := range s.d.Neighbors(n.state) {
				h := st.Hash()
				if seen[h] {
					continue
				}
				seen[h] = true
				children = append(children, &pnode{state: st, parent: n})
			}
			n.children = children
			s.expanded.Add(1)
			n.expanded.Store(true)
		}
		n.mu.Unlock()
	}

	if len(n.children) == 0 {
		// Terminal: reward the node itself.
		backpropP(n, s.eval(n.state))
		return true, false
	}

	// Simulation: one random walk from every new child; the CAS claim makes
	// "new" race-free, and the claimed child carries a virtual loss for the
	// duration of its rollout. Cancellation and the deadline are re-checked
	// between children, as in the sequential search.
	for _, c := range n.children {
		if s.stopped() {
			return worked, true
		}
		if c.visits.Load() > 0 || !c.simulated.CompareAndSwap(false, true) {
			continue
		}
		c.vloss.Add(1)
		if s.cfg.EvaluateChildren {
			s.eval(c.state)
		}
		r := s.rollout(c.state, rng)
		backpropP(c, r)
		c.vloss.Add(-1)
		worked = true
	}
	return worked, false
}

// rollout performs a uniformly random walk from st with the worker's own rng
// and returns the final state's reward.
func (s *psearcher) rollout(st State, rng *rand.Rand) float64 {
	s.rollouts.Add(1)
	cur := st
	sampler, hasSampler := s.d.(Sampler)
	for i := 0; i < s.cfg.MaxRolloutDepth; i++ {
		var next State
		ok := false
		if hasSampler {
			next, ok = sampler.RandomNeighbor(cur, rng)
		} else {
			ns := s.d.Neighbors(cur)
			if len(ns) > 0 {
				next, ok = ns[rng.Intn(len(ns))], true
			}
		}
		if !ok {
			break
		}
		cur = next
	}
	return s.eval(cur)
}
