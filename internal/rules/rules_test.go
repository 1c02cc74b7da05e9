package rules

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/sqlparser"
)

func paperQueries(t testing.TB) []*ast.Node {
	t.Helper()
	srcs := []string{
		"SELECT Sales FROM sales WHERE cty = USA",
		"SELECT Costs FROM sales WHERE cty = EUR",
		"SELECT Costs FROM sales",
	}
	qs := make([]*ast.Node, len(srcs))
	for i, s := range srcs {
		qs[i] = sqlparser.MustParse(s)
	}
	return qs
}

func initial(t testing.TB, qs []*ast.Node) *difftree.Node {
	t.Helper()
	d, err := difftree.Initial(qs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestByName(t *testing.T) {
	for _, r := range All() {
		got, ok := ByName(r.Name())
		if !ok || got.Name() != r.Name() {
			t.Errorf("ByName(%q) failed", r.Name())
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown rule should miss")
	}
}

func TestAny2AllOnPaperExample(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)

	out, ok := (Any2All{}).Apply(d)
	if !ok {
		t.Fatal("Any2All should apply to the initial ANY")
	}
	if out.Kind != difftree.All || out.Label != ast.KindSelect {
		t.Fatalf("Any2All result should be ALL(Select), got %s", out)
	}
	if err := difftree.Validate(out); err != nil {
		t.Fatal(err)
	}
	if !difftree.ExpressibleAll(out, qs) {
		t.Fatal("Any2All lost an input query")
	}
	// The Where position must have gained an ∅ alternative (q3 has no WHERE).
	s := out.String()
	if !strings.Contains(s, "Empty") {
		t.Errorf("expected ∅ alternative for the missing WHERE clause: %s", s)
	}
	// The From clause is shared by all queries → stays a plain node.
	var fromIsPlain bool
	difftree.WalkPath(out, func(n *difftree.Node, p difftree.Path) bool {
		if n.Kind == difftree.All && n.Label == ast.KindFrom {
			fromIsPlain = !n.HasChoice()
		}
		return true
	})
	if !fromIsPlain {
		t.Error("shared FROM clause should not contain choices")
	}
}

func TestAny2AllRejects(t *testing.T) {
	// Mixed head labels.
	mixed := difftree.NewAny(
		difftree.NewAll(ast.KindColExpr, "a"),
		difftree.NewAll(ast.KindTable, "t"),
	)
	if _, ok := (Any2All{}).Apply(mixed); ok {
		t.Error("mixed heads must not factor")
	}
	// Non-Any node.
	if _, ok := (Any2All{}).Apply(difftree.NewAll(ast.KindColExpr, "a")); ok {
		t.Error("non-ANY must not match")
	}
	// Single child.
	if _, ok := (Any2All{}).Apply(difftree.NewAny(difftree.NewAll(ast.KindColExpr, "a"))); ok {
		t.Error("singleton ANY is Unwrap's job")
	}
	// Childless identical branches: nothing to factor.
	leafAny := difftree.NewAny(
		difftree.NewAll(ast.KindTable, "t"),
		difftree.NewAll(ast.KindTable, "t"),
	)
	if _, ok := (Any2All{}).Apply(leafAny); ok {
		t.Error("identical leaves are DedupAny's job")
	}
}

func TestAny2AllAlignsLeafValues(t *testing.T) {
	// ANY[ColExpr:Sales, ColExpr:Costs] — same label, different values: the
	// head differs by Value so the rule must not apply (values are part of
	// the head).
	vals := difftree.NewAny(
		difftree.NewAll(ast.KindColExpr, "Sales"),
		difftree.NewAll(ast.KindColExpr, "Costs"),
	)
	if _, ok := (Any2All{}).Apply(vals); ok {
		t.Error("differing head values must not factor")
	}
}

func TestLiftAndUnliftInverse(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)

	lifted, ok := (Lift{}).Apply(d)
	if !ok {
		t.Fatal("Lift should apply")
	}
	if lifted.Kind != difftree.All || lifted.Label != ast.KindSelect {
		t.Fatalf("lift result = %s", lifted)
	}
	if err := difftree.Validate(lifted); err != nil {
		t.Fatal(err)
	}
	if !difftree.ExpressibleAll(lifted, qs) {
		t.Fatal("Lift lost a query")
	}
	back, ok := (Unlift{}).Apply(lifted)
	if !ok {
		t.Fatal("Unlift should invert Lift")
	}
	if !difftree.Equal(back, d) {
		t.Errorf("Unlift(Lift(d)) != d:\n got %s\nwant %s", back, d)
	}
}

func TestOptionalAndUnoptionalInverse(t *testing.T) {
	anyNode := difftree.NewAny(
		difftree.Emptyn(),
		difftree.NewAll(ast.KindWhere, "", difftree.NewAll(ast.KindColExpr, "x")),
	)
	opt, ok := (Optional{}).Apply(anyNode)
	if !ok || opt.Kind != difftree.Opt {
		t.Fatalf("Optional failed: %v %v", opt, ok)
	}
	back, ok := (Unoptional{}).Apply(opt)
	if !ok || !difftree.Equal(back, anyNode) {
		t.Errorf("Unoptional(Optional(x)) != x: %s", back)
	}

	multi := difftree.NewAny(
		difftree.Emptyn(),
		difftree.NewAll(ast.KindColExpr, "a"),
		difftree.NewAll(ast.KindColExpr, "b"),
	)
	opt2, ok := (Optional{}).Apply(multi)
	if !ok || opt2.Kind != difftree.Opt || opt2.Children[0].Kind != difftree.Any {
		t.Fatalf("Optional with several alternatives should nest ANY: %s", opt2)
	}
	back2, _ := (Unoptional{}).Apply(opt2)
	if !difftree.Equal(back2, multi) {
		t.Errorf("round trip failed: %s", back2)
	}

	if _, ok := (Optional{}).Apply(difftree.NewAny(difftree.NewAll(ast.KindColExpr, "a"))); ok {
		t.Error("no ∅ → no Optional")
	}
	if _, ok := (Optional{}).Apply(difftree.NewAny(difftree.Emptyn())); ok {
		t.Error("only ∅ → no Optional")
	}
}

func TestUnwrapWrapFlattenDedup(t *testing.T) {
	leaf := difftree.NewAll(ast.KindColExpr, "a")

	w, ok := (Wrap{}).Apply(leaf)
	if !ok || w.Kind != difftree.Any || len(w.Children) != 1 {
		t.Fatalf("Wrap failed: %s", w)
	}
	u, ok := (Unwrap{}).Apply(w)
	if !ok || !difftree.Equal(u, leaf) {
		t.Fatalf("Unwrap(Wrap(x)) != x")
	}
	if _, ok := (Wrap{}).Apply(difftree.Emptyn()); ok {
		t.Error("wrapping ∅ is useless")
	}
	if _, ok := (Wrap{}).Apply(difftree.NewAny(leaf)); ok {
		t.Error("wrapping choice nodes is forbidden")
	}
	if _, ok := (Unwrap{}).Apply(difftree.NewAny(leaf, leaf.Clone())); ok {
		t.Error("Unwrap needs exactly one child")
	}

	nested := difftree.NewAny(
		difftree.NewAny(difftree.NewAll(ast.KindColExpr, "a"), difftree.NewAll(ast.KindColExpr, "b")),
		difftree.NewAll(ast.KindColExpr, "c"),
	)
	flat, ok := (Flatten{}).Apply(nested)
	if !ok || len(flat.Children) != 3 {
		t.Fatalf("Flatten failed: %s", flat)
	}
	if _, ok := (Flatten{}).Apply(flat); ok {
		t.Error("Flatten should not re-apply")
	}

	dup := difftree.NewAny(leaf.Clone(), leaf.Clone(), difftree.NewAll(ast.KindColExpr, "b"))
	dd, ok := (DedupAny{}).Apply(dup)
	if !ok || len(dd.Children) != 2 {
		t.Fatalf("DedupAny failed: %s", dd)
	}
	if _, ok := (DedupAny{}).Apply(dd); ok {
		t.Error("DedupAny should not re-apply")
	}
}

func TestMultiMerge(t *testing.T) {
	mk := func(col string) *difftree.Node {
		return difftree.NewAll(ast.KindBetween, "",
			difftree.NewAll(ast.KindColExpr, col),
			difftree.NewAll(ast.KindNumExpr, "0"),
			difftree.NewAll(ast.KindNumExpr, "30"))
	}
	and := difftree.NewAll(ast.KindAnd, "", mk("u"), mk("g"), mk("r"), mk("i"))
	out, ok := (MultiMerge{}).Apply(and)
	if !ok {
		t.Fatal("MultiMerge should merge the BETWEEN run")
	}
	if len(out.Children) != 1 || out.Children[0].Kind != difftree.Multi {
		t.Fatalf("merged shape wrong: %s", out)
	}
	inner := out.Children[0].Children[0]
	if inner.Kind != difftree.Any || len(inner.Children) != 4 {
		t.Fatalf("MULTI child should be ANY of 4 distinct predicates: %s", inner)
	}
	if err := difftree.Validate(out); err != nil {
		t.Fatal(err)
	}

	// The merged tree still expresses the original conjunction.
	orig := &ast.Node{Kind: ast.KindAnd, Children: []*ast.Node{
		astBetween("u"), astBetween("g"), astBetween("r"), astBetween("i"),
	}}
	if !difftree.Expressible(out, orig) {
		t.Error("merged tree lost the original conjunction")
	}
	// And generalizes to other counts/orders.
	if !difftree.Expressible(out, &ast.Node{Kind: ast.KindAnd, Children: []*ast.Node{astBetween("g")}}) {
		t.Error("merged tree should express a single conjunct")
	}

	// Identical repeats merge to a MULTI with a plain child.
	and2 := difftree.NewAll(ast.KindAnd, "", mk("u"), mk("u"))
	out2, ok := (MultiMerge{}).Apply(and2)
	if !ok || out2.Children[0].Children[0].Kind != difftree.All {
		t.Fatalf("identical run should merge to plain child: %s", out2)
	}

	// Runs shorter than 2 do not merge.
	if _, ok := (MultiMerge{}).Apply(difftree.NewAll(ast.KindAnd, "", mk("u"))); ok {
		t.Error("single element must not merge")
	}
	// Opt/Multi parents are skipped.
	if _, ok := (MultiMerge{}).Apply(difftree.NewOpt(mk("u"))); ok {
		t.Error("OPT parent must not merge")
	}
	// Runs inside ANY alternatives merge too (label looked through ANY).
	anyRun := difftree.NewAll(ast.KindAnd, "",
		difftree.NewAny(mk("u"), mk("g")),
		difftree.NewAny(mk("r"), mk("i")))
	out3, ok := (MultiMerge{}).Apply(anyRun)
	if !ok || out3.Children[0].Kind != difftree.Multi {
		t.Fatalf("ANY run merge failed: %s", out3)
	}
	if len(out3.Children[0].Children[0].Children) != 4 {
		t.Errorf("flattened alternatives wrong: %s", out3)
	}
}

func astBetween(col string) *ast.Node {
	return ast.New(ast.KindBetween, "",
		ast.Leaf(ast.KindColExpr, col),
		ast.Leaf(ast.KindNumExpr, "0"),
		ast.Leaf(ast.KindNumExpr, "30"))
}

func TestAll2AnyInverse(t *testing.T) {
	// ALL(BiExpr)[ColExpr:cty, ANY[StrExpr:USA, StrExpr:EUR]]
	all := difftree.NewAll(ast.KindBiExpr, "=",
		difftree.NewAll(ast.KindColExpr, "cty"),
		difftree.NewAny(
			difftree.NewAll(ast.KindStrExpr, "USA"),
			difftree.NewAll(ast.KindStrExpr, "EUR")))
	out, ok := (All2Any{}).Apply(all)
	if !ok {
		t.Fatal("All2Any should apply")
	}
	if out.Kind != difftree.Any || len(out.Children) != 2 {
		t.Fatalf("expansion wrong: %s", out)
	}
	// Re-factoring recovers the original.
	back, ok := (Any2All{}).Apply(out)
	if !ok || !difftree.Equal(back, all) {
		t.Errorf("Any2All(All2Any(x)) != x: %s", back)
	}

	// ∅ alternatives drop the clause in that branch.
	withOpt := difftree.NewAll(ast.KindSelect, "",
		difftree.NewAll(ast.KindProject, "", difftree.NewAll(ast.KindColExpr, "a")),
		difftree.NewAny(difftree.Emptyn(), difftree.NewAll(ast.KindWhere, "", difftree.NewAll(ast.KindColExpr, "x"))))
	out2, ok := (All2Any{}).Apply(withOpt)
	if !ok {
		t.Fatal("All2Any with ∅ should apply")
	}
	if len(out2.Children[0].Children) >= len(out2.Children[1].Children) {
		t.Errorf("first branch should lack the WHERE clause: %s", out2)
	}

	// Mismatched cardinalities refuse.
	bad := difftree.NewAll(ast.KindSelect, "",
		difftree.NewAny(difftree.NewAll(ast.KindColExpr, "a"), difftree.NewAll(ast.KindColExpr, "b")),
		difftree.NewAny(difftree.NewAll(ast.KindTable, "t"), difftree.NewAll(ast.KindTable, "u"), difftree.NewAll(ast.KindTable, "v")))
	if _, ok := (All2Any{}).Apply(bad); ok {
		t.Error("mismatched ANY cardinalities must refuse")
	}
	// No ANY children refuses.
	if _, ok := (All2Any{}).Apply(difftree.NewAll(ast.KindColExpr, "a")); ok {
		t.Error("no ANY children must refuse")
	}
}

func TestMovesPreserveExpressibility(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)
	moves := Moves(d, qs, All())
	if len(moves) == 0 {
		t.Fatal("initial state should have moves")
	}
	for _, m := range moves {
		next, err := ApplyMove(d, m)
		if err != nil {
			t.Fatalf("move %s: %v", m, err)
		}
		if err := difftree.Validate(next); err != nil {
			t.Fatalf("move %s produced invalid tree: %v", m, err)
		}
		if !difftree.ExpressibleAll(next, qs) {
			t.Fatalf("move %s lost an input query: %s", m, next)
		}
	}
}

func TestMovesDeterministic(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)
	a := Moves(d, qs, All())
	b := Moves(d, qs, All())
	if len(a) != len(b) {
		t.Fatal("non-deterministic move count")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("move %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestApplyMoveErrors(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)
	if _, err := ApplyMove(d, Move{Rule: "nope", Path: nil}); err == nil {
		t.Error("unknown rule must error")
	}
	if _, err := ApplyMove(d, Move{Rule: "Any2All", Path: difftree.Path{99}}); err == nil {
		t.Error("bad path must error")
	}
	if _, err := ApplyMove(d, Move{Rule: "Optional", Path: nil}); err == nil {
		t.Error("non-matching rule must error")
	}
	// Wrap matches a plain ALL anywhere, but applies only under an ANY: at
	// the root and at a child of an ALL its parent veto must hold.
	sel := difftree.FromAST(sqlparser.MustParse("SELECT a FROM t"))
	for _, p := range []difftree.Path{nil, {0}} {
		if n := difftree.At(sel, p); n == nil || n.Kind != difftree.All {
			t.Fatalf("%s of %s is not an ALL node", p, sel)
		}
		if next, err := ApplyMove(sel, Move{Rule: "Wrap", Path: p}); err == nil {
			t.Errorf("Wrap@%s under a non-ANY parent must error, got %s", p, next)
		}
	}
}

// TestRandomWalkInvariant is the paper's core invariant under fuzzing: any
// sequence of legal moves keeps every input query expressible and the tree
// valid.
func TestRandomWalkInvariant(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 60; step++ {
		moves := Moves(d, qs, All())
		if len(moves) == 0 {
			break
		}
		m := moves[rng.Intn(len(moves))]
		next, err := ApplyMove(d, m)
		if err != nil {
			t.Fatalf("step %d move %s: %v", step, m, err)
		}
		if err := difftree.Validate(next); err != nil {
			t.Fatalf("step %d move %s: invalid: %v\n%s", step, m, err, next)
		}
		if !difftree.ExpressibleAll(next, qs) {
			t.Fatalf("step %d move %s lost a query:\n%s", step, m, next)
		}
		d = next
	}
}

// TestReachFactoredState checks that greedy forward application reaches a
// compact state resembling the paper's Figure 4 for the 3-query example.
func TestReachFactoredState(t *testing.T) {
	qs := paperQueries(t)
	d := initial(t, qs)
	// Greedily shrink the tree: factoring rules reduce total size by merging
	// shared structure (choice count briefly rises before it falls, so size
	// is the right greedy objective here).
	metric := func(n *difftree.Node) int { return n.Size()*10 + n.CountChoice() }
	factoring := []Rule{Any2All{}, Lift{}, MultiMerge{}, Optional{}, Unwrap{}, Flatten{}, DedupAny{}, GroupAny{}}
	for i := 0; i < 50; i++ {
		moves := Moves(d, qs, factoring)
		if len(moves) == 0 {
			break
		}
		best := d
		bestM := metric(d)
		for _, m := range moves {
			next, err := ApplyMove(d, m)
			if err != nil {
				continue
			}
			if mm := metric(next); mm < bestM {
				best, bestM = next, mm
			}
		}
		if difftree.Equal(best, d) {
			break
		}
		d = best
	}
	// The factored tree should be an ALL(Select) root with few choices.
	if d.Kind != difftree.All || d.Label != ast.KindSelect {
		t.Fatalf("expected factored ALL(Select) root, got %s", d)
	}
	if c := d.CountChoice(); c > 4 {
		t.Errorf("factored tree still has %d choice nodes: %s", c, d)
	}
	if !difftree.ExpressibleAll(d, qs) {
		t.Error("factored tree lost queries")
	}
}

func TestMoveString(t *testing.T) {
	m := Move{Rule: "Lift", Path: difftree.Path{0, 2}}
	if m.String() != "Lift@/0/2" {
		t.Errorf("Move.String = %q", m.String())
	}
}

// TestKindMask: every rule's mask is its MatchKinds row; a rule absent from
// the table matches all four kinds.
func TestKindMask(t *testing.T) {
	for _, r := range All() {
		kinds, ok := MatchKinds[r.Name()]
		if !ok {
			t.Errorf("built-in rule %s has no MatchKinds row", r.Name())
		}
		m := KindMask(r)
		for k := difftree.All; k <= difftree.Multi; k++ {
			if got := m&(1<<k) != 0; got != kinds[k] {
				t.Errorf("KindMask(%s) bit %v = %v, MatchKinds says %v", r.Name(), k, got, kinds[k])
			}
		}
	}
	if m := KindMask(unlistedRule{}); m != 0b1111 {
		t.Errorf("KindMask of a rule outside MatchKinds = %04b, want 1111", m)
	}
}

// unlistedRule is a rule MatchKinds does not know.
type unlistedRule struct{}

func (unlistedRule) Name() string                                { return "Unlisted" }
func (unlistedRule) Apply(*difftree.Node) (*difftree.Node, bool) { return nil, false }

// TestDedupNodes pins dedup's contract: a node is dropped exactly when an
// earlier kept node is structurally Equal to it, and kept nodes stay in
// input order as the same pointers, compacted into the front of the
// argument with the dropped tail cleared. Random lists drawn from a few small
// trees mix duplicates (distinct pointers, equal structure) with
// non-duplicates, and are compared against a reference that tests each
// node with Equal against every node kept before it.
func TestDedupNodes(t *testing.T) {
	a := func() *difftree.Node { return difftree.NewAll(ast.KindColExpr, "a") }
	b := func() *difftree.Node { return difftree.NewAll(ast.KindColExpr, "b") }
	x1, x2, y, x3 := a(), a(), b(), a()
	in := []*difftree.Node{x1, y, x2, y, x3}
	got := dedup(in)
	if len(got) != 2 || got[0] != x1 || got[1] != y {
		t.Fatalf("dedup([a b a b a]) = %v, want the first a and b", got)
	}
	if &got[0] != &in[0] || in[2] != nil || in[3] != nil || in[4] != nil {
		t.Fatalf("dedup did not compact in place and clear the tail: %v", in)
	}
	if got := dedup(nil); len(got) != 0 {
		t.Fatalf("dedup(nil) = %v", got)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		shapes := make([]int64, 1+rng.Intn(4))
		for i := range shapes {
			shapes[i] = rng.Int63()
		}
		ns := make([]*difftree.Node, rng.Intn(9))
		for i := range ns {
			// A fresh tree per element: duplicates never share pointers.
			ns[i] = randomTree(rand.New(rand.NewSource(shapes[rng.Intn(len(shapes))])), 2)
		}
		var want []*difftree.Node
		for _, n := range ns {
			dup := false
			for _, k := range want {
				dup = dup || difftree.Equal(n, k)
			}
			if !dup {
				want = append(want, n)
			}
		}
		got := dedup(share(ns))
		if len(got) != len(want) {
			t.Fatalf("trial %d: dedup kept %d of %d nodes, want %d", trial, len(got), len(ns), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: kept node %d is %s, want %s", trial, i, got[i], want[i])
			}
		}
	}
}
