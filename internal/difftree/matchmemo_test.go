package difftree

import (
	"testing"

	"repro/internal/ast"
)

// matchSteps runs one query's match of root against the log's query qi
// through memo (nil: unmemoized), starting with budget, and returns the
// verdict and the matcher steps it took.
func matchSteps(root *Node, log []*ast.Node, qi int, memo *MatchMemo, budget int) (bool, int) {
	m := acquireMatcher(false)
	defer releaseMatcher(m)
	m.memo = memo
	m.budget = budget
	id := 0
	if memo != nil {
		id = int(memo.roots[qi])
	}
	ok := m.matchQuery(root, log[qi], id)
	return ok, budget - m.budget
}

// TestMatchMemoAnswersRepeatedSteps checks that a second match of the same
// tree is answered from the memo: the same verdict in fewer steps, for
// every query of the paper's log against the figure-4 tree.
func TestMatchMemoAnswersRepeatedSteps(t *testing.T) {
	log := paperQueries(t)
	root := figure4Tree()
	memo := NewMatchMemo(log)
	for qi := range log {
		want, plain := matchSteps(root, log, qi, nil, matchBudget)
		first, _ := matchSteps(root, log, qi, memo, matchBudget)
		again, steps := matchSteps(root, log, qi, memo, matchBudget)
		if first != want || again != want {
			t.Fatalf("query %d: memoized verdicts %v, %v; unmemoized %v", qi, first, again, want)
		}
		if steps >= plain {
			t.Errorf("query %d: the repeated match took %d steps, the unmemoized one %d", qi, steps, plain)
		}
	}
	if !memo.ExpressibleAll(root) || !ExpressibleAll(root, log) {
		t.Fatal("figure-4 tree no longer expresses the paper's log")
	}
}

// TestMatchMemoStoresOnlyWithinBudget starves a memoized match of budget
// so it fails, then checks the memo kept no verdict the starved match got
// wrong: a full-budget match through the same memo still succeeds.
func TestMatchMemoStoresOnlyWithinBudget(t *testing.T) {
	log := paperQueries(t)
	root := figure4Tree()
	for qi := range log {
		_, plain := matchSteps(root, log, qi, nil, matchBudget)
		for budget := 1; budget < plain; budget++ {
			memo := NewMatchMemo(log)
			if ok, _ := matchSteps(root, log, qi, memo, budget); ok {
				continue // enough steps: not starved
			}
			if ok, _ := matchSteps(root, log, qi, memo, matchBudget); !ok {
				t.Fatalf("query %d: after a match starved at budget %d, the memo rejects the query", qi, budget)
			}
		}
	}
}

// TestExpressNeverConsultsMemo checks that Express, whose trail the cost
// model reads, gets a matcher without the memo even when the pool hands it
// one a memoized match released, and so finds the same assignment as
// before any memoized match.
func TestExpressNeverConsultsMemo(t *testing.T) {
	log := paperQueries(t)
	root := figure4Tree()
	var want []string
	for _, q := range log {
		asg, ok := Express(root, q)
		if !ok {
			t.Fatalf("figure-4 tree does not express %s", q)
		}
		want = append(want, DescribeAssignment(root, asg))
	}
	memo := NewMatchMemo(log)
	for i := 0; i < 3; i++ {
		if !memo.ExpressibleAll(root) {
			t.Fatal("memoized ExpressibleAll rejects the paper's log")
		}
		for qi, q := range log {
			asg, ok := Express(root, q)
			if !ok || DescribeAssignment(root, asg) != want[qi] {
				t.Fatalf("pass %d query %d: Express after a memoized match = %v %q, want %q", i, qi, ok, DescribeAssignment(root, asg), want[qi])
			}
		}
		m := acquireMatcher(true)
		memoSet := m.memo != nil
		releaseMatcher(m)
		if memoSet {
			t.Fatal("a trail matcher came from the pool with a memo set")
		}
	}
}

// TestMatchMemoClasses checks the AST half of the memo key: structurally
// equal subtrees of the log share a class wherever they occur, and
// distinct ones never do.
func TestMatchMemoClasses(t *testing.T) {
	log := paperQueries(t)
	log = append(log, log[0]) // a repeated query: every node has a twin
	memo := NewMatchMemo(log)
	var nodes []*ast.Node
	var walk func(a *ast.Node)
	walk = func(a *ast.Node) {
		nodes = append(nodes, a)
		for _, c := range a.Children {
			walk(c)
		}
	}
	for _, q := range log {
		walk(q)
	}
	if len(nodes) != len(memo.class) {
		t.Fatalf("memo numbers %d nodes, the log has %d", len(memo.class), len(nodes))
	}
	for i := range nodes {
		for j := range nodes {
			if same := memo.class[i] == memo.class[j]; same != ast.Equal(nodes[i], nodes[j]) {
				t.Fatalf("nodes %d (%s) and %d (%s): same class %v, Equal %v", i, nodes[i], j, nodes[j], same, !same)
			}
		}
	}
	if last := len(log) - 1; memo.class[memo.roots[0]] != memo.class[memo.roots[last]] {
		t.Error("a repeated query's root got a class of its own")
	}
}
