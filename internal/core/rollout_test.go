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
	"repro/internal/rules"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// poolNeighbor is the rollout step as it was drawn from materialized
// per-kind path pools and probed with the full LegalState: the reference
// RandomNeighbor must reproduce draw for draw.
func poolNeighbor(d *domain, cur *difftree.Node, rng *rand.Rand) (*difftree.Node, bool) {
	byKind := d.p.eng.PathPools(cur)
	for i := 0; i < 48; i++ {
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
		next, ok := rules.Candidate(cur, p, r)
		if !ok || !d.p.eng.LegalState(next) {
			continue
		}
		return next, true
	}
	ms := d.p.eng.Moves(cur)
	if len(ms) == 0 {
		return nil, false
	}
	next, err := rules.ApplyMove(cur, ms[rng.Intn(len(ms))])
	return next, err == nil
}

// testDomain builds the MCTS domain core would search log with.
func testDomain(t testing.TB, log []*ast.Node, opt Options) (*domain, *difftree.Node) {
	t.Helper()
	opt = opt.withDefaults()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Model{NavUnit: DefaultNavUnit, Screen: opt.Screen}
	return newDomain(newProblem(log, init, model, opt, newEngine(log, init, model, opt), 0)), init
}

// TestRandomNeighborMatchesPoolDraw replays RandomNeighbor beside a twin
// domain, on its own engine, that draws from materialized path pools and
// probes every candidate with the full LegalState, on twin rng streams over
// seeded rollouts, cached and uncached: every step must land on the same
// state, and the streams must stay in lockstep. That pins both the
// pool-free draw and the rollout probe (eval.Engine.LegalMove, which skips
// the re-match for widening rules). Every state handed to RandomNeighbor is
// checked against LegalMove's precondition: it is legal.
func TestRandomNeighborMatchesPoolDraw(t *testing.T) {
	logs := []struct {
		name string
		log  []*ast.Node
	}{
		{"figure1", workload.PaperFigure1Log()},
		{"sdss", workload.SDSSLog()},
		{"random-join-6", workload.RandomJoinLog(rand.New(rand.NewSource(5)), 6)},
	}
	for _, c := range logs {
		for _, memo := range []bool{true, false} {
			opt := Options{DisableMemo: !memo}
			d, init := testDomain(t, c.log, opt)
			twin, _ := testDomain(t, c.log, opt)
			oracle, _ := testDomain(t, c.log, Options{DisableMemo: true})
			steps := 0
			for seed := int64(1); seed <= 12; seed++ {
				rngOld := rand.New(rand.NewSource(seed))
				rngNew := rand.New(rand.NewSource(seed))
				cur := init
				for step := 0; step < 40; step++ {
					if !oracle.p.eng.LegalState(cur) {
						t.Fatalf("%s memo=%v seed %d step %d: rollout state is not legal", c.name, memo, seed, step)
					}
					want, wok := poolNeighbor(twin, cur, rngOld)
					got, gok := d.RandomNeighbor(state{d: cur, h: difftree.Hash(cur)}, rngNew)
					if wok != gok {
						t.Fatalf("%s memo=%v seed %d step %d: ok = %v, pool draw %v", c.name, memo, seed, step, gok, wok)
					}
					if !gok {
						break
					}
					if h := got.Hash(); h != difftree.Hash(want) {
						t.Fatalf("%s memo=%v seed %d step %d: state %x, pool draw %x", c.name, memo, seed, step, h, difftree.Hash(want))
					}
					if a, b := rngOld.Int63(), rngNew.Int63(); a != b {
						t.Fatalf("%s memo=%v seed %d step %d: rng streams diverged", c.name, memo, seed, step)
					}
					cur = got.(state).d
					steps++
				}
			}
			if steps < 100 {
				t.Fatalf("%s memo=%v: only %d steps compared", c.name, memo, steps)
			}
		}
	}
}

// legalChecked wraps a domain and fails the test when MCTS hands a state
// that is not legal under the domain's log to Neighbors (eval.Engine.Moves)
// or RandomNeighbor (eval.Engine.LegalMove's precondition).
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

// TestSearchStatesStayLegal checks the domain invariant LegalMove relies on:
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
