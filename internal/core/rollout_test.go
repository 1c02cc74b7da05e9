package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/mcts"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// testDomain builds the MCTS domain core would search log with.
func testDomain(t testing.TB, log []*ast.Node, opt Options) (*domain, *difftree.Node) {
	t.Helper()
	opt = opt.withDefaults()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Model{NavUnit: DefaultNavUnit, Screen: opt.Screen}
	return newDomain(newProblem(log, init, model, opt, newEngine(log, init, model, opt))), init
}

// legalChecked wraps a domain and fails the test when MCTS hands a state
// that is not legal under the domain's log to Neighbors (eval.Engine.Moves)
// or RandomNeighbor (eval.Engine.RandomMove's precondition).
type legalChecked struct {
	*domain
	t       testing.TB
	oracle  *domain // uncached twin: LegalState is the full re-match
	checked int     // states checked
}

func (c *legalChecked) check(s mcts.State, via string) {
	c.t.Helper()
	if d := s.(state).d; !c.oracle.p.eng.LegalState(d) {
		c.t.Fatalf("%s got a state that is not legal under the current log: %s", via, d)
	}
	c.checked++
}

func (c *legalChecked) Neighbors(s mcts.State) []mcts.State {
	c.check(s, "Neighbors")
	return c.domain.Neighbors(s)
}

func (c *legalChecked) RandomNeighbor(s mcts.State, rng *rand.Rand) (mcts.State, bool) {
	c.check(s, "RandomNeighbor")
	return c.domain.RandomNeighbor(s, rng)
}

// appendedQuery finds, among candidate states, one whose language holds a
// query q outside log while one of its legal moves does not express q.
// Appending q to log keeps that state legal and makes that successor stale.
func appendedQuery(log []*ast.Node, candidates []*difftree.Node, eng *eval.Engine) (*difftree.Node, *ast.Node, bool) {
	for _, s := range candidates {
		for _, q := range difftree.EnumerateQueries(s, 64, 2) {
			inLog := false
			for _, l := range log {
				inLog = inLog || ast.Equal(l, q)
			}
			if inLog {
				continue
			}
			for _, next := range eng.Neighbors(s) {
				if !difftree.Expressible(next, q) {
					return s, q, true
				}
			}
		}
	}
	return nil, nil, false
}

// TestSearchStatesStayLegal checks the domain invariant RandomMove relies on:
// MCTS hands Moves and RandomNeighbor only legal states, on a cold search
// and after a session append that re-roots the previous search tree. For
// the append, the first search starts at a state whose language holds a
// query q outside the log while one of its successors does not; the second
// searches the log plus q from the same state with the first tree, so the
// reused root has a stale child that reconciliation must drop before the
// search descends or rolls out.
func TestSearchStatesStayLegal(t *testing.T) {
	search := func(log []*ast.Node, root *difftree.Node, reuse *mcts.Tree, iters int) mcts.Result {
		opt := Options{Seed: 3, RolloutDepth: 6}.withDefaults()
		d, _ := testDomain(t, log, opt)
		oracle, _ := testDomain(t, log, Options{DisableMemo: true})
		c := &legalChecked{domain: d, t: t, oracle: oracle}
		if !oracle.p.eng.LegalState(root) {
			t.Fatalf("search root is not legal: %s", root)
		}
		res := mcts.Search(context.Background(), c, state{d: root, h: difftree.Hash(root)}, mcts.Config{
			C:                opt.ExplorationC,
			MaxRolloutDepth:  opt.RolloutDepth,
			Iterations:       iters,
			Seed:             opt.Seed,
			EvaluateChildren: true,
			Reuse:            reuse,
		})
		if c.checked == 0 {
			t.Fatal("the search checked no state")
		}
		return res
	}

	for _, log := range [][]*ast.Node{workload.PaperFigure1Log(), workload.SDSSLog()} {
		init, err := difftree.Initial(log)
		if err != nil {
			t.Fatal(err)
		}
		search(log, init, nil, 8)
	}

	// Factoring this log's root (Any2All) also expresses the cross
	// combinations, such as a with x = 2; All2Any back drops them.
	log := []*ast.Node{
		sqlparser.MustParse("SELECT a FROM t WHERE x = 1"),
		sqlparser.MustParse("SELECT b FROM t WHERE x = 2"),
	}
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := testDomain(t, log, Options{DisableMemo: true})
	warm, q, ok := appendedQuery(log, oracle.p.eng.Neighbors(init), oracle.p.eng)
	if !ok {
		t.Fatal("no successor of the initial state has a stale move under an appended query; the re-root case is vacuous")
	}
	first := search(log, warm, nil, 8)
	appended := append(append([]*ast.Node(nil), log...), q)
	// Enough iterations for UCT to visit every child of the re-rooted warm
	// state, so a stale child kept by a broken reconciliation is reached.
	if res := search(appended, warm, first.Tree, 40); !res.ReRooted {
		t.Fatal("the append search did not re-root on the previous tree")
	}
}
