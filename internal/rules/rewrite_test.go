package rules

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// checkRewrite holds Rewrite to the reference bodies (refRewrite) for every
// rule at every node of d: the same verdict, and a structurally equal
// replacement when the pattern matches. It counts the matches per rule.
func checkRewrite(t testing.TB, what string, d *difftree.Node, matched map[string]int) {
	t.Helper()
	difftree.WalkPath(d, func(n *difftree.Node, p difftree.Path) bool {
		_, parent := lookup(d, p)
		for _, r := range All() {
			got, ok := Rewrite(n, parent, r)
			want, wok := refRewrite(d, p, r)
			if ok != wok {
				t.Fatalf("%s: %s at %s: Rewrite ok = %v, reference %v\nnode %s", what, r.Name(), p, ok, wok, n)
			}
			if !ok {
				continue
			}
			matched[r.Name()]++
			if !difftree.Equal(got, want) {
				t.Fatalf("%s: %s at %s: Rewrite = %s, reference %s\nnode %s", what, r.Name(), p, got, want, n)
			}
		}
		return true
	})
}

// rewriteWalk checks Rewrite against the reference on every state of a
// seeded random walk over log's legal moves (the full re-match oracle,
// Moves), from its initial state, counting the matches per rule.
func rewriteWalk(t testing.TB, name string, log []*ast.Node, seed int64, steps int, matched map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := initial(t, log)
	for step := 0; ; step++ {
		checkRewrite(t, name, d, matched)
		ms := Moves(d, log, All())
		if step == steps || len(ms) == 0 {
			return
		}
		next, err := ApplyMove(d, ms[rng.Intn(len(ms))])
		if err != nil {
			t.Fatal(err)
		}
		d = next
	}
}

// TestRewriteMatchesReference checks every rule's Rewrite against the
// reference bodies on every node of the states along seeded random walks
// over the paper's logs and of seeded random trees, and that every rule
// matches somewhere. Legal states never hold duplicate alternatives, so
// DedupAny matches only in the random trees.
func TestRewriteMatchesReference(t *testing.T) {
	logs := []struct {
		name  string
		log   []*ast.Node
		seeds int
		steps int
	}{
		{"figure1", workload.PaperFigure1Log(), 6, 14},
		{"sdss", workload.SDSSLog(), 4, 16},
		{"sdss-join", workload.SDSSJoinLog(), 4, 16},
	}
	if testing.Short() {
		logs = logs[:1]
	}
	matched := map[string]int{}
	for _, c := range logs {
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			rewriteWalk(t, c.name, c.log, seed, c.steps, matched)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		checkRewrite(t, "random tree", randomAny(rand.New(rand.NewSource(seed)), 3), matched)
	}
	t.Logf("matches per rule: %v", matched)
	if testing.Short() {
		return
	}
	for _, r := range All() {
		if matched[r.Name()] == 0 {
			t.Errorf("%s never matched on the walks", r.Name())
		}
	}
}

// FuzzRuleRewrite checks Rewrite against the reference bodies on random
// walks over the paper's logs (shape%4 picks Figure 1, SDSS or SDSS-join,
// shape/4 the walk's length) and, for shape%4 == 3, on a random tree with
// every choice kind, Seq splices and ∅, which need not be valid.
func FuzzRuleRewrite(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		for shape := uint8(0); shape < 4; shape++ {
			f.Add(seed, shape+4*uint8(seed%5))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		logs := [][]*ast.Node{workload.PaperFigure1Log(), workload.SDSSLog(), workload.SDSSJoinLog()}
		if i := int(shape % 4); i < len(logs) {
			rewriteWalk(t, "walk", logs[i], seed, int(shape/4)%8, map[string]int{})
			return
		}
		checkRewrite(t, "random tree", randomAny(rand.New(rand.NewSource(seed)), 1+int(shape/4)%4), map[string]int{})
	})
}

// randomAny is an ANY of one to four randomTree alternatives of the given
// depth, so the ANY rules see mixed, repeated and ∅ alternatives.
func randomAny(rng *rand.Rand, depth int) *difftree.Node {
	kids := make([]*difftree.Node, 1+rng.Intn(4))
	for i := range kids {
		kids[i] = randomTree(rng, depth)
	}
	return difftree.NewAny(kids...)
}

// TestRewriteRejectsWithoutAllocating: on the SDSS log's initial state,
// Rewrite of every (rule, node) pair whose pattern does not match, across
// all node kinds, allocates nothing. GroupAny, DedupAny and Optional reject
// the root ANY of ten same-head SELECTs only by a scan of its alternatives.
func TestRewriteRejectsWithoutAllocating(t *testing.T) {
	d := initial(t, workload.SDSSLog())
	type try struct {
		n, parent *difftree.Node
		r         Rule
	}
	var rejected []try
	names := map[string]bool{}
	difftree.WalkPath(d, func(n *difftree.Node, p difftree.Path) bool {
		_, parent := lookup(d, p)
		for _, r := range All() {
			if _, ok := Rewrite(n, parent, r); !ok {
				rejected = append(rejected, try{n, parent, r})
				if n.Kind == difftree.Any {
					names[r.Name()] = true
				}
			}
		}
		return true
	})
	for _, name := range []string{"GroupAny", "DedupAny", "Optional"} {
		if !names[name] {
			t.Fatalf("%s matches the initial state's ANY; the case no longer reaches its pre-check", name)
		}
	}
	if testutil.Race {
		t.Skip("allocation counts vary under the race detector")
	}
	if avg := testing.AllocsPerRun(5, func() {
		for _, c := range rejected {
			Rewrite(c.n, c.parent, c.r)
		}
	}); avg != 0 {
		t.Errorf("%d rejected (rule, node) pairs: %v allocs per pass, want 0", len(rejected), avg)
	}
}
