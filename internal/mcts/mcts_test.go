package mcts

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// lineState is a toy domain: integers 0..n-1 on a line, reward peaked at a
// hidden target. Neighbors are ±1. A random walker drifts; UCT should home
// in on the peak.
type lineState int

func (s lineState) Hash() uint64 { return uint64(s) }

type lineDomain struct {
	n, target int
}

func (d lineDomain) Neighbors(s State) []State {
	v := int(s.(lineState))
	var out []State
	if v > 0 {
		out = append(out, lineState(v-1))
	}
	if v < d.n-1 {
		out = append(out, lineState(v+1))
	}
	return out
}

func (d lineDomain) Reward(s State) float64 {
	v := int(s.(lineState))
	dist := math.Abs(float64(v - d.target))
	return 1.0 / (1.0 + dist)
}

// trapDomain has a deceptive local optimum near the start (a greedy hill
// climber parks there) plus a gentle slope toward the distant global
// optimum; exploration must escape the trap.
type trapDomain struct{ lineDomain }

func (d trapDomain) Reward(s State) float64 {
	v := int(s.(lineState))
	switch {
	case v == 2:
		return 0.5 // local optimum: both neighbors score lower
	case v == d.target:
		return 1.0
	default:
		return 0.1 + 0.3*float64(v)/float64(d.n)
	}
}

func TestSearchFindsPeak(t *testing.T) {
	d := lineDomain{n: 40, target: 25}
	res := Search(context.Background(), d, lineState(0), Config{Iterations: 600, MaxRolloutDepth: 60, Seed: 5, EvaluateChildren: true})
	got := int(res.Best.(lineState))
	if got != d.target {
		t.Errorf("best state = %d, want %d (reward %f)", got, d.target, res.BestReward)
	}
	if res.BestReward != 1.0 {
		t.Errorf("best reward = %f", res.BestReward)
	}
	if res.Iterations != 600 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.Expanded == 0 || res.Rollouts == 0 || res.Evals == 0 {
		t.Errorf("counters zero: %+v", res)
	}
}

func TestSearchEscapesTrap(t *testing.T) {
	d := trapDomain{lineDomain{n: 30, target: 22}}
	res := Search(context.Background(), d, lineState(0), Config{Iterations: 800, MaxRolloutDepth: 40, Seed: 3, EvaluateChildren: true})
	if int(res.Best.(lineState)) != 22 {
		t.Errorf("stuck at %d (reward %f)", int(res.Best.(lineState)), res.BestReward)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	d := lineDomain{n: 40, target: 31}
	cfg := Config{Iterations: 100, MaxRolloutDepth: 30, Seed: 9}
	a := Search(context.Background(), d, lineState(0), cfg)
	b := Search(context.Background(), d, lineState(0), cfg)
	if a.Best.(lineState) != b.Best.(lineState) || a.Evals != b.Evals || a.Rollouts != b.Rollouts {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestMoreIterationsNoWorse(t *testing.T) {
	d := lineDomain{n: 100, target: 83}
	short := Search(context.Background(), d, lineState(0), Config{Iterations: 10, MaxRolloutDepth: 20, Seed: 2})
	long := Search(context.Background(), d, lineState(0), Config{Iterations: 500, MaxRolloutDepth: 20, Seed: 2})
	if long.BestReward < short.BestReward {
		t.Errorf("more iterations got worse: %f vs %f", long.BestReward, short.BestReward)
	}
}

// terminalDomain has no moves at all: the search must terminate and return
// the root.
type terminalDomain struct{}

func (terminalDomain) Neighbors(State) []State { return nil }
func (terminalDomain) Reward(State) float64    { return 0.25 }

func TestTerminalRoot(t *testing.T) {
	res := Search(context.Background(), terminalDomain{}, lineState(7), Config{Iterations: 5, Seed: 1})
	if res.Best.(lineState) != 7 {
		t.Error("root should be best in a terminal domain")
	}
	if res.BestReward != 0.25 {
		t.Errorf("reward = %f", res.BestReward)
	}
}

// samplerDomain verifies the Sampler fast path is used during rollouts.
type samplerDomain struct {
	lineDomain
	samplerCalls int
}

func (d *samplerDomain) RandomNeighbor(s State, rng *rand.Rand) (State, bool) {
	d.samplerCalls++
	ns := d.Neighbors(s)
	if len(ns) == 0 {
		return nil, false
	}
	return ns[rng.Intn(len(ns))], true
}

func TestSamplerUsed(t *testing.T) {
	d := &samplerDomain{lineDomain: lineDomain{n: 20, target: 15}}
	Search(context.Background(), d, lineState(0), Config{Iterations: 20, MaxRolloutDepth: 10, Seed: 4})
	if d.samplerCalls == 0 {
		t.Error("sampler never called")
	}
}

func TestTimeBudget(t *testing.T) {
	d := lineDomain{n: 1000, target: 999}
	start := time.Now()
	res := Search(context.Background(), d, lineState(0), Config{TimeBudget: 30 * time.Millisecond, MaxRolloutDepth: 10, Seed: 1})
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Errorf("time budget ignored: ran %v", elapsed)
	}
	if res.Iterations == 0 {
		t.Error("no iterations within budget")
	}
}

// fanDomain is a one-level star: the root has `fan` children, every child is
// terminal, and each Reward call burns `delay`. It models the large-fanout
// difftree states where one simulation pass dominates an iteration.
type fanDomain struct {
	fan   int
	delay time.Duration
	evals func() // called on every Reward, before the delay
}

func (d fanDomain) Neighbors(s State) []State {
	if int(s.(lineState)) != 0 {
		return nil
	}
	out := make([]State, d.fan)
	for i := range out {
		out[i] = lineState(i + 1)
	}
	return out
}

func (d fanDomain) Reward(State) float64 {
	if d.evals != nil {
		d.evals()
	}
	time.Sleep(d.delay)
	return 0.5
}

// TestTimeBudgetNotOverrunByFanout is the regression test for the
// time-budget overrun: the simulation loop used to re-check only the
// context between children, never the wall-clock deadline, so one iteration
// over a large fanout ran arbitrarily past TimeBudget (here ~1.5s of child
// rollouts against a 50ms budget). The deadline must now cut the pass.
func TestTimeBudgetNotOverrunByFanout(t *testing.T) {
	d := fanDomain{fan: 300, delay: 5 * time.Millisecond}
	start := time.Now()
	Search(context.Background(), d, lineState(0), Config{TimeBudget: 50 * time.Millisecond, MaxRolloutDepth: 4, Seed: 1})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("TimeBudget=50ms overrun to %v by a fanout-300 simulation pass", elapsed)
	}
}

// TestCancelledIterationNotCounted is the regression test for the
// iteration off-by-one: the counter used to be incremented before iterate
// ran, so a search cancelled mid-iteration reported one more completed
// iteration than it performed. The context is cancelled from inside the
// first simulation pass; the aborted iteration must not be counted.
func TestCancelledIterationNotCounted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	d := fanDomain{fan: 10, evals: func() {
		calls++
		if calls == 2 { // call 1 scores the root; call 2 is mid-iteration
			cancel()
		}
	}}
	res := Search(ctx, d, lineState(0), Config{Iterations: 50, MaxRolloutDepth: 4, Seed: 1})
	if !res.Interrupted {
		t.Error("mid-iteration cancellation must report Interrupted")
	}
	if res.Iterations != 0 {
		t.Errorf("aborted iteration was counted: Iterations = %d, want 0", res.Iterations)
	}
}

func TestContextCancellation(t *testing.T) {
	d := lineDomain{n: 1000, target: 999}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the search must stop immediately
	res := Search(ctx, d, lineState(0), Config{Iterations: 1 << 30, MaxRolloutDepth: 10, Seed: 1})
	if !res.Interrupted {
		t.Error("cancelled search must report Interrupted")
	}
	if res.Iterations != 0 {
		t.Errorf("cancelled-before-start search ran %d iterations", res.Iterations)
	}
	if res.Best == nil {
		t.Error("cancelled search must still return the best-so-far state (the root)")
	}
}

func TestContextDeadline(t *testing.T) {
	d := lineDomain{n: 100000, target: 99999}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := Search(ctx, d, lineState(0), Config{Iterations: 1 << 30, MaxRolloutDepth: 50, Seed: 1})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline ignored: ran %v", elapsed)
	}
	if !res.Interrupted {
		t.Error("deadline-terminated search must report Interrupted")
	}
	if res.Best == nil {
		t.Error("no best-so-far state")
	}
}

func TestProgressCallback(t *testing.T) {
	d := lineDomain{n: 40, target: 25}
	var snaps []Result
	Search(context.Background(), d, lineState(0), Config{
		Iterations: 25, MaxRolloutDepth: 10, Seed: 2,
		Progress: func(r Result) { snaps = append(snaps, r) },
	})
	if len(snaps) != 25 {
		t.Fatalf("progress called %d times, want 25", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Iterations != snaps[i-1].Iterations+1 {
			t.Error("iteration counts must increase by one per snapshot")
		}
		if snaps[i].BestReward < snaps[i-1].BestReward {
			t.Error("best reward must be monotone non-decreasing")
		}
		if snaps[i].Evals < snaps[i-1].Evals {
			t.Error("eval counts must be monotone")
		}
	}
}

// testNode builds a node carrying the given completed visits and reward
// total.
func testNode(parent *node, visits int64, total float64) *node {
	n := &node{parent: parent}
	n.visits.Store(visits)
	n.totalBits.Store(math.Float64bits(total))
	return n
}

func TestUCTMath(t *testing.T) {
	parent := testNode(nil, 10, 0)
	child := testNode(parent, 2, 1.0)
	got := uct(child, 1.0)
	want := 0.5 + math.Sqrt(math.Log(10)/2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("uct = %f, want %f", got, want)
	}
	if !math.IsInf(uct(&node{parent: parent}, 1.0), 1) {
		t.Error("unvisited node must have infinite UCT")
	}
	root := testNode(nil, 3, 1.5)
	if uct(root, 1.0) != 0.5 {
		t.Error("root UCT is pure exploitation")
	}
	// A worker's own virtual loss sits on the parent it ranks from and must
	// not change N; a virtual loss on the child counts as a zero-reward
	// visit.
	parent.vloss.Store(1)
	if got := uct(child, 1.0); got != want {
		t.Errorf("parent virtual loss changed uct: %f, want %f", got, want)
	}
	child.vloss.Store(2)
	if got, want := uct(child, 1.0), 0.25+math.Sqrt(math.Log(10)/4); math.Abs(got-want) > 1e-12 {
		t.Errorf("uct with child virtual loss = %f, want %f", got, want)
	}
}

// TestZeroConfigRuns: a zero-value Config still runs (defaults kick in).
func TestZeroConfigRuns(t *testing.T) {
	res := Search(context.Background(), lineDomain{n: 5, target: 4}, lineState(0), Config{Seed: 1})
	if res.Iterations == 0 {
		t.Error("zero config should default to a bounded run")
	}
}

func TestBackprop(t *testing.T) {
	root := &node{}
	mid := &node{parent: root}
	leaf := &node{parent: mid}
	backprop(leaf, 0.75)
	for i, n := range []*node{root, mid, leaf} {
		if n.visits.Load() != 1 || n.total() != 0.75 {
			t.Errorf("node %d: visits=%d total=%f", i, n.visits.Load(), n.total())
		}
	}
}
