package mcts

import (
	"context"
	"testing"
)

// TestReuseReRootsAndSavesEvals: feeding a previous run's tree back through
// Config.Reuse re-roots the search on the persisted statistics, which must
// cost fewer Reward calls than an identical from-scratch run — visited
// children skip their simulation pass — at an equal-or-better best reward.
func TestReuseReRootsAndSavesEvals(t *testing.T) {
	d := lineDomain{n: 60, target: 12}
	base := Config{Iterations: 300, MaxRolloutDepth: 30, Seed: 11, EvaluateChildren: true}

	first := Search(context.Background(), d, lineState(0), base)
	if first.Tree == nil {
		t.Fatal("sequential search returned no tree")
	}
	if first.ReRooted {
		t.Fatal("fresh search claims re-rooting")
	}

	warm := base
	warm.Reuse = first.Tree
	second := Search(context.Background(), d, lineState(0), warm)
	if !second.ReRooted {
		t.Fatal("root state is in the reused tree but search did not re-root")
	}

	cold := Search(context.Background(), d, lineState(0), base)
	if second.Evals >= cold.Evals {
		t.Errorf("re-rooted run used %d evals, from-scratch %d; reuse must be cheaper", second.Evals, cold.Evals)
	}
	if cold.BestReward != 1.0 || second.BestReward != 1.0 {
		t.Errorf("peak missed: cold reward %f, re-rooted reward %f, want 1.0 for both", cold.BestReward, second.BestReward)
	}
}

// TestReuseReRootsAtDescendant: a warm start typically moves the root to a
// state deeper in the previous tree; the subtree there is found by hash and
// its statistics survive.
func TestReuseReRootsAtDescendant(t *testing.T) {
	d := lineDomain{n: 60, target: 12}
	base := Config{Iterations: 300, MaxRolloutDepth: 30, Seed: 7, EvaluateChildren: true}
	first := Search(context.Background(), d, lineState(0), base)

	warm := base
	warm.Reuse = first.Tree
	res := Search(context.Background(), d, lineState(4), warm)
	if !res.ReRooted {
		t.Fatal("descendant state was explored by the first search; expected a re-root")
	}
	if got := int(res.Best.(lineState)); got != d.target {
		t.Errorf("best state = %d, want %d", got, d.target)
	}
}

// TestReuseUnknownRootFallsBack: a root state the previous tree never
// materialized starts a fresh search (no re-root, no panic).
func TestReuseUnknownRootFallsBack(t *testing.T) {
	d := lineDomain{n: 200, target: 5}
	small := Config{Iterations: 10, MaxRolloutDepth: 3, Seed: 3, EvaluateChildren: true}
	first := Search(context.Background(), d, lineState(0), small)

	warm := small
	warm.Reuse = first.Tree
	res := Search(context.Background(), d, lineState(199), warm)
	if res.ReRooted {
		t.Fatal("state 199 cannot be in a 10-iteration tree from state 0")
	}
	if res.Tree == nil {
		t.Fatal("fallback search must still persist a tree")
	}
}

// TestReuseReconcileDropsAndKeepsChildren: after re-rooting into a domain
// whose neighbor sets changed, reconciliation keeps surviving children (with
// their visits) and drops states that are no longer reachable.
func TestReuseReconcileDropsAndKeepsChildren(t *testing.T) {
	big := lineDomain{n: 40, target: 30}
	base := Config{Iterations: 120, MaxRolloutDepth: 20, Seed: 9, EvaluateChildren: true}
	first := Search(context.Background(), big, lineState(0), base)

	// Shrink the domain: states >= 20 vanish. The reused tree still holds
	// them; reconciliation must prune them rather than descend into them.
	shrunk := lineDomain{n: 20, target: 10}
	warm := base
	warm.Reuse = first.Tree
	res := Search(context.Background(), shrunk, lineState(0), warm)
	if !res.ReRooted {
		t.Fatal("root 0 is in the reused tree")
	}
	if got := int(res.Best.(lineState)); got != shrunk.target {
		t.Errorf("best state = %d, want %d", got, shrunk.target)
	}
	// Audit: no node of the new tree may hold a state outside the shrunk
	// domain once visited — reconciled nodes must have pruned them.
	var audit func(n *node)
	audit = func(n *node) {
		if n.epoch.Load() == res.Tree.epoch {
			for _, c := range n.children {
				if int(c.state.(lineState)) >= shrunk.n {
					t.Errorf("reconciled node %v kept out-of-domain child %v", n.state, c.state)
				}
			}
		}
		for _, c := range n.children {
			audit(c)
		}
	}
	audit(res.Tree.root)
}
