// Package mcts implements Monte Carlo Tree Search with UCT selection, the
// paper's search procedure: each iteration selects the state with the
// highest UCT score, expands its immediate neighbor states, performs a
// random walk of up to MaxRolloutDepth steps (200 in the paper) from each
// new child, and adds the final state's reward to every state along the
// path. The search stops on an iteration or wall-clock budget.
//
// The package is generic over the state space: the interface-generation
// domain (difftrees + transformation rules) plugs in via Domain.
//
// Search is an anytime algorithm: it accepts a context.Context and stops
// promptly — returning the best state seen so far — when the context is
// cancelled or its deadline passes, in addition to the iteration and
// wall-clock budgets in Config.
//
// One searcher serves every worker count: max(Config.TreeWorkers, 1)
// workers share one tree and one iteration budget. While a worker is inside
// an iteration, every node on its selection path carries a virtual loss (an
// extra visit that contributes zero reward), so concurrent workers see
// in-flight paths as less attractive and diversify instead of piling onto
// the same leaf. Expansion is guarded per node by a mutex and published by
// an atomic epoch, node statistics are atomics, and each new child is
// claimed for its one random walk exactly once. With one worker nothing is
// contended and the search is bit-identical per seed. With more, the
// scheduler decides which states get visited, so results are not
// reproducible across runs, but the accounting is: after the workers join
// no virtual loss remains, and the root has absorbed exactly one
// backpropagation per random walk or terminal evaluation.
package mcts

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// State is one search state. Hash identifies states for deduplication of a
// node's children; equal states may hash equally.
type State interface {
	Hash() uint64
}

// Domain defines the search space.
type Domain interface {
	// Neighbors returns the states reachable in one legal move.
	Neighbors(s State) []State
	// Reward estimates the quality of s in [0, 1] (higher is better). The
	// paper uses the negated interface cost mapped into this range.
	Reward(s State) float64
}

// Sampler is an optional Domain extension: draw one random neighbor without
// materializing all of them (much cheaper during rollouts). ok is false when
// s has no neighbors.
type Sampler interface {
	RandomNeighbor(s State, rng *rand.Rand) (State, bool)
}

// Config tunes the search.
type Config struct {
	// C is the UCT exploration constant (√2 default).
	C float64
	// MaxRolloutDepth bounds random walks (paper: up to 200 steps).
	MaxRolloutDepth int
	// Iterations bounds the number of MCTS iterations (0 = unbounded; then
	// TimeBudget must be set). The budget is shared by the workers, not
	// multiplied by them.
	Iterations int
	// TimeBudget bounds wall-clock time (0 = unbounded).
	TimeBudget time.Duration
	// Seed makes the search deterministic. Worker 0 draws its random walks
	// from rand.NewSource(Seed); further workers from derived seeds.
	Seed int64
	// TreeWorkers is the number of goroutines sharing the search tree
	// (values < 1 mean one). One worker runs on the calling goroutine and
	// is bit-identical for a fixed seed. With more, the Domain must be safe
	// for concurrent use, and results are *not* reproducible across runs
	// (worker interleaving decides which states are visited); only the
	// quality envelope is pinned.
	TreeWorkers int
	// EvaluateChildren also scores each expanded child directly, so good
	// intermediate states are never missed; costs one Reward call per child.
	EvaluateChildren bool
	// Reuse, when non-nil, seeds the search with a tree persisted by a
	// previous Search (Result.Tree). If the new root state occurs anywhere
	// in the reused tree, that subtree — visit counts, totals, and children
	// included — becomes the new search tree (Result.ReRooted reports it);
	// otherwise the search starts fresh. Reused nodes carry an older epoch:
	// selection stops at them, and expansion re-derives their neighbor set
	// under the *current* domain, merging by state hash so surviving
	// children keep their statistics while vanished states drop and new
	// ones appear. Children that kept visits skip their simulation pass,
	// which is where a warm-started session append saves evaluations. The
	// search mutates the reused tree; hand each follow-up its own.
	Reuse *Tree
	// Progress, when non-nil, is invoked after every iteration with the
	// running result (anytime observability). It runs on the worker that
	// completed the iteration and must be fast. With TreeWorkers > 1 it may
	// be invoked concurrently; callers needing serialization wrap the
	// callback in their own mutex.
	Progress func(Result)
}

// Result reports the search outcome.
type Result struct {
	Best        State   // highest-reward state seen anywhere in the search
	BestReward  float64 // its reward
	Iterations  int     // iterations actually executed
	Expanded    int     // total expanded nodes
	Rollouts    int     // total random walks
	Evals       int     // total Reward calls
	Interrupted bool    // the context ended the search before its budget
	Tree        *Tree   // the search tree, reusable via Config.Reuse
	ReRooted    bool    // the search started from a subtree of Config.Reuse
}

// Tree is an opaque persisted search tree, handed back by Search and
// accepted by Config.Reuse. It retains every state the search materialized,
// so holders should replace it with each newer Result.Tree rather than
// accumulate generations.
type Tree struct {
	root  *node
	epoch uint32
}

// find returns the first node (pre-order) whose state hash is h, or nil.
func (t *Tree) find(h uint64) *node {
	if t == nil || t.root == nil {
		return nil
	}
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.state.Hash() == h {
			return n
		}
		stack = append(stack, n.children...)
	}
	return nil
}

type node struct {
	state  State
	parent *node

	// epoch stamps the Search run that last expanded this node: 0 means
	// never expanded, the running search's epoch means children is final
	// for the rest of the run, and an older epoch marks a node reused
	// through Config.Reuse, reconciled against the current domain before
	// anyone descends through it. mu serializes that expansion; the epoch
	// store publishes children to workers that load it.
	epoch    atomic.Uint32
	mu       sync.Mutex
	children []*node

	visits    atomic.Int64  // completed backpropagations through this node
	totalBits atomic.Uint64 // math.Float64bits of the summed reward
	vloss     atomic.Int64  // in-flight selection paths through this node
	claimed   atomic.Bool   // taken for its one expansion-time random walk
}

func (n *node) total() float64 { return math.Float64frombits(n.totalBits.Load()) }

// add records one backpropagation of reward r.
func (n *node) add(r float64) {
	n.visits.Add(1)
	for {
		old := n.totalBits.Load()
		if n.totalBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+r)) {
			return
		}
	}
}

// backprop adds the reward to every state along the path to the root.
func backprop(n *node, r float64) {
	for ; n != nil; n = n.parent {
		n.add(r)
	}
}

// uct computes the node's UCT score. Each in-flight path through n counts
// as a visit with zero reward, lowering both terms for nodes other workers
// are inside. N is the parent's completed visits only: the parent always
// carries the ranking worker's own virtual loss, which must not change the
// ranking.
func uct(n *node, c float64) float64 {
	eff := n.visits.Load() + n.vloss.Load()
	if eff == 0 {
		return math.Inf(1)
	}
	exploit := n.total() / float64(eff)
	if n.parent == nil {
		return exploit
	}
	N := n.parent.visits.Load()
	if N < 1 {
		N = 1
	}
	return exploit + c*math.Sqrt(math.Log(float64(N))/float64(eff))
}

// Search runs MCTS from root and returns the best state found. A nil ctx is
// treated as context.Background(); when ctx ends mid-search the best
// state found so far is returned with Interrupted set.
func Search(ctx context.Context, d Domain, root State, cfg Config) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.C == 0 {
		cfg.C = math.Sqrt2
	}
	if cfg.MaxRolloutDepth <= 0 {
		cfg.MaxRolloutDepth = 200
	}
	if cfg.Iterations <= 0 && cfg.TimeBudget <= 0 {
		cfg.Iterations = 100
	}
	s := &searcher{d: d, cfg: cfg, ctx: ctx, tree: &Tree{root: &node{state: root}, epoch: 1}}
	if cfg.TimeBudget > 0 {
		//mctsvet:allow wallclock -- anytime TimeBudget deadline: decides when to stop iterating, never feeds a reward or move choice
		s.deadline = time.Now().Add(cfg.TimeBudget)
	}
	if cfg.Reuse != nil {
		s.tree.epoch = cfg.Reuse.epoch + 1
		if n := cfg.Reuse.find(root.Hash()); n != nil {
			// Re-root: the reused subtree keeps its statistics; its parent
			// link is severed so backprop stops here and the abandoned
			// ancestors become garbage.
			n.parent = nil
			s.tree.root = n
			s.reRooted = true
		}
	}
	s.best, s.bestReward = root, math.Inf(-1)
	s.eval(root)

	var wg sync.WaitGroup
	for w := 1; w < cfg.TreeWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s.worker(rand.New(rand.NewSource(seed)))
		}(cfg.Seed + int64(w)*0x9e3779b9)
	}
	s.worker(rand.New(rand.NewSource(cfg.Seed)))
	wg.Wait()
	s.primeBest()
	return s.result()
}

type searcher struct {
	d        Domain
	cfg      Config
	ctx      context.Context
	deadline time.Time
	tree     *Tree
	reRooted bool

	claimed     atomic.Int64 // iterations taken from the budget
	iterations  atomic.Int64 // iterations that counted
	expanded    atomic.Int64
	rollouts    atomic.Int64
	evals       atomic.Int64
	interrupted atomic.Bool

	mu         sync.Mutex // guards best and bestReward
	best       State
	bestReward float64
}

// result snapshots the running search.
func (s *searcher) result() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Result{
		Best:        s.best,
		BestReward:  s.bestReward,
		Iterations:  int(s.iterations.Load()),
		Expanded:    int(s.expanded.Load()),
		Rollouts:    int(s.rollouts.Load()),
		Evals:       int(s.evals.Load()),
		Interrupted: s.interrupted.Load(),
		Tree:        s.tree,
		ReRooted:    s.reRooted,
	}
}

// worker runs iterations until the budget is spent or the search is
// stopped. Only counted iterations consume the budget: a cycle that did
// nothing countable hands its claim back, so another pass does the work.
func (s *searcher) worker(rng *rand.Rand) {
	for {
		if s.cancelled() {
			s.interrupted.Store(true)
			return
		}
		if s.expired() || (s.cfg.Iterations > 0 && !s.claim()) {
			return
		}
		if !s.iterate(rng) {
			s.claimed.Add(-1)
			continue
		}
		s.iterations.Add(1)
		if s.cfg.Progress != nil {
			s.cfg.Progress(s.result())
		}
	}
}

// claim takes one iteration from the shared budget, reporting false when
// none is left. The count never overshoots the budget, so a claim handed
// back after an uncounted cycle is always available to retry.
func (s *searcher) claim() bool {
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

// primeBest prepares the persisted tree for reuse. A warm-started follow-up
// search re-roots at this search's best state, but the best state is almost
// always an unexpanded frontier leaf — a subtree with no statistics to
// reuse. Expanding it here gives that follow-up visited children to skip.
// Each child's reward is recorded on the child and on the best node, the
// follow-up's root, and not above it: the ancestors keep one visit per
// random walk or terminal evaluation. The Result counters, the incumbent
// best, and the rng streams are untouched (child rewards are deterministic
// per state and not counted in Evals), so the search outcome is the same
// with or without priming. Skipped when the search was cut short — the
// budget is spent — and when the best state never became a tree node (e.g.
// it was only ever a rollout endpoint). Runs after the workers have joined.
func (s *searcher) primeBest() {
	if s.interrupted.Load() || s.expired() {
		return
	}
	n := s.tree.find(s.best.Hash())
	if n == nil || n.epoch.Load() != 0 {
		return
	}
	n.children = s.neighbors(n)
	for _, c := range n.children {
		r := s.d.Reward(c.state)
		c.add(r)
		n.add(r)
	}
	n.epoch.Store(s.tree.epoch)
}

// cancelled polls the search context without blocking.
func (s *searcher) cancelled() bool {
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

// expired reports that the wall-clock budget has run out.
func (s *searcher) expired() bool {
	//mctsvet:allow wallclock -- anytime TimeBudget deadline check: stops iteration, never feeds a reward or move choice
	return !s.deadline.IsZero() && !time.Now().Before(s.deadline)
}

// stopped reports that the search must end now — by cancellation or by the
// wall-clock budget. Checked wherever a long loop re-checks cancellation, so
// a TimeBudget cannot be overrun by a large fanout.
func (s *searcher) stopped() bool {
	return s.cancelled() || s.expired()
}

// eval scores a state and folds it into the shared best.
func (s *searcher) eval(st State) float64 {
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

// iterate runs one select-expand-simulate-backprop cycle. It reports whether
// the cycle counts: it expanded a node, simulated a child, or
// backpropagated a terminal, and neither cancellation nor the wall-clock
// deadline cut it short. A cycle that found every new child already claimed
// by a concurrent worker does nothing countable; a lone worker never meets
// one.
func (s *searcher) iterate(rng *rand.Rand) bool {
	// Selection: descend by UCT, marking the path in flight, until a node
	// this run has not expanded — never expanded, or reused from an earlier
	// run and due for reconciliation — or one without children.
	n := s.tree.root
	n.vloss.Add(1)
	for n.epoch.Load() == s.tree.epoch && len(n.children) > 0 {
		best := n.children[0]
		bestScore := uct(best, s.cfg.C)
		for _, c := range n.children[1:] {
			if sc := uct(c, s.cfg.C); sc > bestScore {
				best, bestScore = c, sc
			}
		}
		n = best
		n.vloss.Add(1)
	}
	defer func() {
		for m := n; m != nil; m = m.parent {
			m.vloss.Add(-1)
		}
	}()

	worked := s.expand(n)
	if len(n.children) == 0 {
		// Terminal: reward the node itself.
		backprop(n, s.eval(n.state))
		return true
	}

	// Simulation: one random walk from every new child (paper: "perform a
	// random walk ... from all of its immediate neighbor states"); the claim
	// makes "new" race-free, and the walked child carries a virtual loss
	// meanwhile. Large fanouts make this the long pole of an iteration, so
	// both cancellation and the wall-clock deadline are re-checked between
	// children.
	for _, c := range n.children {
		if c.visits.Load() > 0 {
			continue
		}
		if s.stopped() {
			return false
		}
		if !c.claimed.CompareAndSwap(false, true) {
			continue
		}
		c.vloss.Add(1)
		if s.cfg.EvaluateChildren {
			s.eval(c.state)
		}
		backprop(c, s.rollout(c.state, rng))
		c.vloss.Add(-1)
		worked = true
	}
	return worked
}

// expand materializes n's children unless this run already has, and
// reports whether this call did it. Exactly one worker expands a node; late
// arrivals wait on the mutex and find it done.
func (s *searcher) expand(n *node) bool {
	if n.epoch.Load() == s.tree.epoch {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.epoch.Load() == s.tree.epoch {
		return false
	}
	n.children = s.neighbors(n)
	s.expanded.Add(1)
	n.epoch.Store(s.tree.epoch)
	return true
}

// neighbors builds n's child list: every immediate neighbor, duplicates
// dropped. For a node reused from an earlier run this is a reconciliation:
// the neighbor set is re-derived under the current domain and merged by
// state hash, so surviving children keep their statistics, states that are
// no longer reachable drop out, and newly legal states join fresh.
func (s *searcher) neighbors(n *node) []*node {
	var old map[uint64]*node
	if len(n.children) > 0 {
		old = make(map[uint64]*node, len(n.children))
		for _, c := range n.children {
			old[c.state.Hash()] = c
		}
	}
	seen := map[uint64]bool{n.state.Hash(): true}
	var kids []*node
	for _, st := range s.d.Neighbors(n.state) {
		h := st.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		if oc := old[h]; oc != nil {
			kids = append(kids, oc)
		} else {
			kids = append(kids, &node{state: st, parent: n})
		}
	}
	return kids
}

// rollout performs a uniformly random walk from st with the worker's rng and
// returns the final state's reward.
func (s *searcher) rollout(st State, rng *rand.Rand) float64 {
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
