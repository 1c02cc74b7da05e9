package mcts

import (
	"context"
	"testing"
	"time"
)

// walkTree applies fn to every node reachable from root.
func walkTree(root *node, fn func(*node)) {
	fn(root)
	for _, c := range root.children {
		walkTree(c, fn)
	}
}

// TestTreeParallelFindsPeak checks that four workers sharing one tree find
// the peak and count the full shared budget. The peak must be reachable by
// the random walks from wherever the tree grows, so that finding it does not
// hinge on which worker expands what: every 60-step walk on a 16-state line
// has a fair chance to end on the peak, and 1500 iterations run far more
// than a thousand walks. (On a 40-state line with the peak at 25, walks
// starting near 0 rarely reach it; the search then missed it on a few
// percent of runs, and the sequential search missed it at the same budget
// on a few percent of seeds.)
func TestTreeParallelFindsPeak(t *testing.T) {
	d := lineDomain{n: 16, target: 11}
	res := Search(context.Background(), d, lineState(0), Config{
		Iterations: 1500, MaxRolloutDepth: 60, Seed: 5, EvaluateChildren: true, TreeWorkers: 4,
	})
	if got := int(res.Best.(lineState)); got != d.target {
		t.Errorf("best state = %d, want %d (reward %f)", got, d.target, res.BestReward)
	}
	if res.Iterations != 1500 {
		t.Errorf("iterations = %d, want the full shared budget of 1500", res.Iterations)
	}
	if res.Expanded == 0 || res.Rollouts == 0 || res.Evals == 0 {
		t.Errorf("counters zero: %+v", res)
	}
}

// TestTreeParallelWorkersOneBitIdentical pins the determinism contract:
// TreeWorkers 0 and 1 must run the identical sequential search.
func TestTreeParallelWorkersOneBitIdentical(t *testing.T) {
	d := lineDomain{n: 60, target: 47}
	base := Config{Iterations: 200, MaxRolloutDepth: 30, Seed: 11, EvaluateChildren: true}
	seq := Search(context.Background(), d, lineState(0), base)
	one := base
	one.TreeWorkers = 1
	got := Search(context.Background(), d, lineState(0), one)
	// The Tree handle is a fresh pointer per run; identity is over the
	// search outcome, not the handle.
	got.Tree, seq.Tree = nil, nil
	if got != seq {
		t.Errorf("TreeWorkers=1 diverged from the sequential search:\n got %+v\nwant %+v", got, seq)
	}
}

// TestVirtualLossAccounting joins an 8-worker shared-tree search and then
// audits the tree: no virtual loss may remain, visit counts must be
// consistent along every edge, rewards must stay within their [0, 1] bounds,
// and the root must have absorbed exactly one backpropagation per random
// walk (lineDomain has no terminal states, so walks are the only source).
func TestVirtualLossAccounting(t *testing.T) {
	d := lineDomain{n: 30, target: 21}
	cfg := Config{Iterations: 400, MaxRolloutDepth: 20, Seed: 3, TreeWorkers: 8, C: 1.4}
	res := Search(context.Background(), d, lineState(0), cfg)
	root := res.Tree.root

	walkTree(root, func(n *node) {
		if vl := n.vloss.Load(); vl != 0 {
			t.Errorf("node %v: %d virtual losses left after join", n.state, vl)
		}
		v := n.visits.Load()
		var childSum int64
		for _, c := range n.children {
			childSum += c.visits.Load()
		}
		// Every child backprop passes through its parent; the parent may
		// additionally absorb its own expansion-time or terminal backprops.
		if childSum > v {
			t.Errorf("node %v: children visits %d exceed own visits %d", n.state, childSum, v)
		}
		if total := n.total(); total < 0 || total > float64(v) {
			t.Errorf("node %v: total reward %f out of [0, visits=%d]", n.state, total, v)
		}
	})
	if rv := root.visits.Load(); rv != int64(res.Rollouts) {
		t.Errorf("root visits %d != rollouts %d: lost or duplicated backpropagation", rv, res.Rollouts)
	}
	if res.Iterations != 400 {
		t.Errorf("iterations = %d, want 400", res.Iterations)
	}
}

// TestTreeParallelStressTinyTree maximizes contention: 8 workers in a
// 5-state space collide on the same few nodes constantly. Run under -race in
// CI, this is the shared-tree memory-safety exercise.
func TestTreeParallelStressTinyTree(t *testing.T) {
	d := lineDomain{n: 5, target: 4}
	cfg := Config{Iterations: 2000, MaxRolloutDepth: 8, Seed: 9, TreeWorkers: 8, EvaluateChildren: true}
	res := Search(context.Background(), d, lineState(0), cfg)
	if int(res.Best.(lineState)) != d.target {
		t.Errorf("best = %v, want %d", res.Best, d.target)
	}
	walkTree(res.Tree.root, func(n *node) {
		if n.vloss.Load() != 0 {
			t.Errorf("virtual loss left on %v", n.state)
		}
	})
}

func TestTreeParallelCancellation(t *testing.T) {
	d := lineDomain{n: 1000, target: 999}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Search(ctx, d, lineState(0), Config{Iterations: 1 << 30, MaxRolloutDepth: 10, Seed: 1, TreeWorkers: 4})
	if !res.Interrupted {
		t.Error("cancelled tree-parallel search must report Interrupted")
	}
	if res.Iterations != 0 {
		t.Errorf("cancelled-before-start search completed %d iterations", res.Iterations)
	}
	if res.Best == nil {
		t.Error("cancelled search must still return the root as best-so-far")
	}
}

func TestTreeParallelTimeBudget(t *testing.T) {
	d := lineDomain{n: 100000, target: 99999}
	start := time.Now()
	res := Search(context.Background(), d, lineState(0), Config{
		TimeBudget: 30 * time.Millisecond, MaxRolloutDepth: 10, Seed: 1, TreeWorkers: 4,
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("time budget ignored: ran %v", elapsed)
	}
	if res.Iterations == 0 {
		t.Error("no iterations within budget")
	}
	if res.Interrupted {
		t.Error("an elapsed TimeBudget is a normal completion, not an interruption")
	}
}

// TestTreeWorkersReuseReconcile is TestReuseReconcileDropsAndKeepsChildren
// with four workers reconciling one reused tree at once (run under -race in
// CI): states outside the shrunk domain drop out of every reconciled node,
// surviving children stay the same nodes with at least their old visits,
// and after the join no virtual loss remains and the root has absorbed one
// visit per new random walk.
func TestTreeWorkersReuseReconcile(t *testing.T) {
	big := lineDomain{n: 40, target: 30}
	cfg := Config{Iterations: 120, MaxRolloutDepth: 20, Seed: 9, EvaluateChildren: true, TreeWorkers: 4}
	first := Search(context.Background(), big, lineState(0), cfg)

	oldKids := map[*node][]*node{}
	oldVisits := map[*node]int64{}
	walkTree(first.Tree.root, func(n *node) {
		oldKids[n] = n.children
		oldVisits[n] = n.visits.Load()
	})

	shrunk := lineDomain{n: 20, target: 10}
	cfg.Iterations = 400
	cfg.Reuse = first.Tree
	res := Search(context.Background(), shrunk, lineState(0), cfg)
	if !res.ReRooted {
		t.Fatal("root 0 is in the reused tree")
	}
	if got := int(res.Best.(lineState)); got != shrunk.target {
		t.Errorf("best state = %d, want %d", got, shrunk.target)
	}

	root := res.Tree.root
	if got, want := root.visits.Load()-oldVisits[root], int64(res.Rollouts); got != want {
		t.Errorf("root gained %d visits, want one per random walk (%d)", got, want)
	}
	reconciled := 0
	walkTree(root, func(n *node) {
		if vl := n.vloss.Load(); vl != 0 {
			t.Errorf("node %v: %d virtual losses left after join", n.state, vl)
		}
		if n.epoch.Load() != res.Tree.epoch {
			return
		}
		kept := map[*node]bool{}
		for _, c := range n.children {
			if int(c.state.(lineState)) >= shrunk.n {
				t.Errorf("reconciled node %v kept out-of-domain child %v", n.state, c.state)
			}
			kept[c] = true
		}
		old, reused := oldKids[n]
		if !reused || len(old) == 0 {
			return
		}
		reconciled++
		for _, oc := range old {
			if int(oc.state.(lineState)) >= shrunk.n {
				continue
			}
			if !kept[oc] {
				t.Errorf("reconciled node %v replaced surviving child %v", n.state, oc.state)
			} else if v := oc.visits.Load(); v < oldVisits[oc] {
				t.Errorf("surviving child %v lost visits: %d, had %d", oc.state, v, oldVisits[oc])
			}
		}
	})
	if reconciled == 0 {
		t.Error("no reused node was reconciled")
	}
}
