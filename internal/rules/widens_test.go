package rules

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/workload"
)

// Enumeration bounds for the widening checks: enough queries to cover every
// choice of the small trees, and a sample of the factored ones.
const (
	widenQueryLimit = 64
	widenMaxMulti   = 2
)

// lostQuery applies r at p and returns a query of qs that the rewrite does
// not express; ok is false when the rule does not apply, the rewrite is not
// a valid tree, or no query is lost. Invalid rewrites are skipped because
// legality rejects them first: the matcher, not the language, fails on a
// Multi whose child became nullable (MultiMerge inside a MULTI does that).
func lostQuery(d *difftree.Node, p difftree.Path, r Rule, qs []*ast.Node) (lost *ast.Node, ok bool) {
	next, applied := Candidate(d, p, r)
	if !applied || difftree.Validate(next) != nil {
		return nil, false
	}
	for _, q := range qs {
		if !difftree.Expressible(next, q) {
			return q, true
		}
	}
	return nil, false
}

// checkWidening asserts the Widens contract at every node of a valid d: a
// widening rule's rewrite, when it is a valid tree, keeps every query d
// expresses. It also holds the spine-free verdict eval.Engine reads from the
// rewritten subtree alone (size arithmetic and difftree.ValidReplace) to the
// size and ValidEdit of the built candidate, and a rule's Shape to the
// replacement it builds (checkShape). It returns the number of (node,
// widening rule) rewrites checked.
func checkWidening(t testing.TB, what string, d *difftree.Node) int {
	t.Helper()
	qs := difftree.EnumerateQueries(d, widenQueryLimit, widenMaxMulti)
	checked := 0
	difftree.WalkPath(d, func(n *difftree.Node, p difftree.Path) bool {
		for _, r := range All() {
			if !Widens(r) {
				continue
			}
			if s, ok := r.(shaper); ok {
				checkShape(t, what, d, p, s)
			}
			next, applied := Candidate(d, p, r)
			if !applied {
				continue
			}
			_, parent := lookup(d, p)
			sub, _ := Rewrite(n, parent, r)
			if got, want := d.Size()-n.Size()+sub.Size(), next.Size(); got != want {
				t.Fatalf("%s: %s at %s: size from the subtree %d, candidate size %d", what, r.Name(), p, got, want)
			}
			valid := difftree.ValidEdit(next, p)
			if got := difftree.ValidReplace(d, p, n, sub); got != valid {
				t.Fatalf("%s: %s at %s: ValidReplace = %v, ValidEdit on the candidate %v\nstate %s",
					what, r.Name(), p, got, valid, d)
			}
			if valid != (difftree.Validate(next) == nil) {
				t.Fatalf("%s: %s at %s: ValidEdit = %v disagrees with Validate", what, r.Name(), p, valid)
			}
			if valid {
				checked++
			}
			if q, lost := lostQuery(d, p, r, qs); lost {
				t.Fatalf("%s: %s widens, but its rewrite at %s loses %s\nstate %s",
					what, r.Name(), p, q, d)
			}
		}
		return true
	})
	return checked
}

// TestWideningRulesKeepQueries checks Widens on seeded walks over the
// paper's logs and random multi-table logs: at every node where a widening
// rule applies and yields a valid tree, every query the state expresses
// stays expressible in the rewrite. The walks follow the full re-match
// oracle's legal moves.
func TestWideningRulesKeepQueries(t *testing.T) {
	logs := []struct {
		name  string
		log   []*ast.Node
		seeds int
		steps int
	}{
		{"figure1", workload.PaperFigure1Log(), 6, 14},
		// Swapped projection lists: once the root is factored, Any2All on
		// the Project alternatives aligns by label and keeps one order.
		{"swapped", parseAll(t, "SELECT a, COUNT(*) FROM t", "SELECT COUNT(*), a FROM t WHERE x = 1"), 12, 8},
		{"sdss", workload.SDSSLog(), 2, 10},
		{"random-join-5", workload.RandomJoinLog(rand.New(rand.NewSource(7)), 5), 4, 12},
		{"random-join-8", workload.RandomJoinLog(rand.New(rand.NewSource(11)), 8), 2, 10},
	}
	if testing.Short() {
		logs = logs[:1]
	}
	for _, c := range logs {
		t.Run(c.name, func(t *testing.T) {
			checked := 0
			for seed := int64(1); seed <= int64(c.seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				d := initial(t, c.log)
				for step := 0; ; step++ {
					checked += checkWidening(t, c.name, d)
					ms := Moves(d, c.log, All())
					if step == c.steps || len(ms) == 0 {
						break
					}
					next, err := ApplyMove(d, ms[rng.Intn(len(ms))])
					if err != nil {
						t.Fatal(err)
					}
					d = next
				}
			}
			if checked == 0 {
				t.Fatal("no widening rewrite was checked")
			}
		})
	}
}

// TestNonWideningRulesLoseQueries holds the two factoring rules that can
// drop a query to a counterexample each, so neither can be listed as
// widening: Any2All aligns children by label and collapses
// ANY[a(X,Y), a(Y,X)] to a(X,Y), and All2Any pairs alternatives by position,
// so a(ANY[x1,x2], ANY[y1,y2]) loses a(x1,y2).
func TestNonWideningRulesLoseQueries(t *testing.T) {
	x := func() *difftree.Node { return difftree.NewAll(ast.KindColExpr, "x") }
	y := func() *difftree.Node { return difftree.NewAll(ast.KindStrExpr, "y") }
	col := func(v string) *difftree.Node { return difftree.NewAll(ast.KindColExpr, v) }
	str := func(v string) *difftree.Node { return difftree.NewAll(ast.KindStrExpr, v) }
	cases := []struct {
		rule Rule
		d    *difftree.Node
	}{
		{Any2All{}, difftree.NewAny(
			difftree.NewAll(ast.KindBiExpr, "=", x(), y()),
			difftree.NewAll(ast.KindBiExpr, "=", y(), x()))},
		{All2Any{}, difftree.NewAll(ast.KindBiExpr, "=",
			difftree.NewAny(col("x1"), col("x2")),
			difftree.NewAny(str("y1"), str("y2")))},
	}
	for _, c := range cases {
		if err := difftree.Validate(c.d); err != nil {
			t.Fatal(err)
		}
		qs := difftree.EnumerateQueries(c.d, widenQueryLimit, widenMaxMulti)
		q, lost := lostQuery(c.d, nil, c.rule, qs)
		if !lost {
			t.Fatalf("%s on %s keeps every query; the counterexample is gone", c.rule.Name(), c.d)
		}
		if Widens(c.rule) {
			t.Errorf("%s is listed as widening, but rewriting %s loses %s", c.rule.Name(), c.d, q)
		}
	}
}

// shaper is a rule that reports its replacement's shape without building
// it, as eval.Engine reads it.
type shaper interface {
	Rule
	Shape(n *difftree.Node) (size int, nullable, ok bool)
}

// checkShape holds s.Shape at the node at p of a valid d to the replacement
// s builds there: the same ok, and on a match the same size and
// nullability, with a valid replacement, which a verdict from Shape
// assumes.
func checkShape(t testing.TB, what string, d *difftree.Node, p difftree.Path, s shaper) {
	t.Helper()
	n, parent := lookup(d, p)
	size, nullable, ok := s.Shape(n)
	sub, applied := Rewrite(n, parent, s)
	if ok != applied {
		t.Fatalf("%s: %s at %s: Shape ok %v, Rewrite ok %v\nstate %s", what, s.Name(), p, ok, applied, d)
	}
	if !applied {
		return
	}
	if size != sub.Size() || nullable != difftree.Nullable(sub) {
		t.Fatalf("%s: %s at %s: Shape = (%d, nullable %v), replacement %s has (%d, %v)",
			what, s.Name(), p, size, nullable, sub, sub.Size(), difftree.Nullable(sub))
	}
	if err := difftree.Validate(sub); err != nil {
		t.Fatalf("%s: %s at %s: replacement %s of a valid tree is invalid: %v", what, s.Name(), p, sub, err)
	}
}

// TestShapersHaveNoVeto pins what a verdict from Shape relies on: a rule
// with a Shape widens and applies no parent veto, which Shape does not
// apply.
func TestShapersHaveNoVeto(t *testing.T) {
	shapers := 0
	for _, r := range All() {
		if _, ok := r.(shaper); !ok {
			continue
		}
		shapers++
		if _, ok := r.(parentAware); ok {
			t.Errorf("%s has a Shape and a parent veto, which Shape does not apply", r.Name())
		}
		if !Widens(r) {
			t.Errorf("%s has a Shape but does not widen", r.Name())
		}
	}
	if shapers == 0 {
		t.Error("no built-in rule has a Shape: MultiMerge's verdict builds its replacement again")
	}
}

// TestWidensOnlyBuiltins pins which rules widen: the ten regrouping or
// widening built-ins, never Any2All or All2Any, and never a rule defined
// outside the package.
func TestWidensOnlyBuiltins(t *testing.T) {
	want := map[string]bool{
		"Lift": true, "Unlift": true, "MultiMerge": true, "Optional": true,
		"Unoptional": true, "Unwrap": true, "Wrap": true, "Flatten": true,
		"DedupAny": true, "GroupAny": true,
	}
	for _, r := range All() {
		if got := Widens(r); got != want[r.Name()] {
			t.Errorf("Widens(%s) = %v, want %v", r.Name(), got, want[r.Name()])
		}
	}
	if Widens(unlistedRule{}) {
		t.Error("a rule defined outside the built-in set claims to widen")
	}
}

// randomTree builds a small random difftree over a few labels and values:
// All nodes (plain, Seq splices, ∅), Any, Opt and Multi, nested to depth.
// The result may be invalid; callers filter with difftree.Validate.
func randomTree(rng *rand.Rand, depth int) *difftree.Node {
	leaf := func() *difftree.Node {
		labels := []ast.Kind{ast.KindColExpr, ast.KindStrExpr}
		return difftree.NewAll(labels[rng.Intn(len(labels))], []string{"a", "b"}[rng.Intn(2)])
	}
	if depth <= 0 {
		return leaf()
	}
	kids := func(min int) []*difftree.Node {
		out := make([]*difftree.Node, min+rng.Intn(3))
		for i := range out {
			out[i] = randomTree(rng, depth-1)
		}
		return out
	}
	switch rng.Intn(9) {
	case 0:
		return leaf()
	case 1:
		return difftree.Emptyn()
	case 2:
		return difftree.NewAll(ast.KindSeq, "", kids(1)...)
	case 3, 4:
		return difftree.NewAny(kids(1)...)
	case 5:
		return difftree.NewOpt(randomTree(rng, depth-1))
	case 6:
		return difftree.NewMulti(randomTree(rng, depth-1))
	default:
		labels := []ast.Kind{ast.KindAnd, ast.KindBiExpr}
		return difftree.NewAll(labels[rng.Intn(len(labels))], "", kids(0)...)
	}
}

// FuzzWideningRules checks the Widens contract on random trees: rooted at
// a Project so they express single queries, with every choice kind, Seq
// splices and ∅ below. Every valid widening rewrite at every node must
// keep every enumerated query.
func FuzzWideningRules(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		kids := make([]*difftree.Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomTree(rng, 1+int(depth%4))
		}
		d := difftree.NewAll(ast.KindProject, "", kids...)
		if difftree.Validate(d) != nil {
			return
		}
		checkWidening(t, "random tree", d)
	})
}
