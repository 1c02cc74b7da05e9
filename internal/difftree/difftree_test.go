package difftree

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// paperQueries returns the three queries of paper Figure 1.
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

// figure4Tree hand-builds the difftree of paper Figure 4:
// ALL(Select)[ ANY(Project) From/Table OPT(Where) ] where the Where subtree
// contains ANY(StrExpr).
func figure4Tree() *Node {
	project := NewAll(ast.KindProject, "",
		NewAny(
			NewAll(ast.KindColExpr, "Sales"),
			NewAll(ast.KindColExpr, "Costs"),
		))
	from := NewAll(ast.KindFrom, "", NewAll(ast.KindTable, "sales"))
	where := NewOpt(NewAll(ast.KindWhere, "",
		NewAll(ast.KindBiExpr, "=",
			NewAll(ast.KindColExpr, "cty"),
			NewAny(
				NewAll(ast.KindStrExpr, "USA"),
				NewAll(ast.KindStrExpr, "EUR"),
			))))
	return NewAll(ast.KindSelect, "", project, from, where)
}

func TestKindString(t *testing.T) {
	if All.String() != "ALL" || Any.String() != "ANY" || Opt.String() != "OPT" || Multi.String() != "MULTI" {
		t.Error("kind names wrong")
	}
	if !Any.IsChoice() || !Opt.IsChoice() || !Multi.IsChoice() || All.IsChoice() {
		t.Error("IsChoice wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include number")
	}
}

func TestFromASTToASTRoundTrip(t *testing.T) {
	for _, q := range paperQueries(t) {
		d := FromAST(q)
		if d.HasChoice() {
			t.Fatal("FromAST must be choice-free")
		}
		back, ok := ToAST(d)
		if !ok {
			t.Fatal("ToAST failed on choice-free tree")
		}
		if !ast.Equal(q, back) {
			t.Errorf("round trip changed tree: %s vs %s", q, back)
		}
	}
}

func TestToASTSplicesSeqAndEmpty(t *testing.T) {
	d := NewAll(ast.KindProject, "",
		NewAll(ast.KindSeq, "",
			NewAll(ast.KindColExpr, "a"),
			Emptyn(),
			NewAll(ast.KindColExpr, "b")),
		NewAll(ast.KindColExpr, "c"))
	a, ok := ToAST(d)
	if !ok {
		t.Fatal("ToAST failed")
	}
	if len(a.Children) != 3 {
		t.Fatalf("splice: got %d children, want 3 (%s)", len(a.Children), a)
	}
	if a.Children[0].Value != "a" || a.Children[1].Value != "b" || a.Children[2].Value != "c" {
		t.Errorf("splice order wrong: %s", a)
	}
	if _, ok := ToAST(NewAny(Emptyn())); ok {
		t.Error("ToAST must fail on choice nodes")
	}
	if _, ok := ToAST(Emptyn()); ok {
		t.Error("ToAST of bare Empty must fail (no node produced)")
	}
}

func TestInitial(t *testing.T) {
	qs := paperQueries(t)
	d, err := Initial(qs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != Any || len(d.Children) != 3 {
		t.Fatalf("initial state should be ANY over 3 queries, got %s", d)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	// Duplicates collapse.
	d2, err := Initial([]*ast.Node{qs[0], qs[0].Clone(), qs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Children) != 2 {
		t.Errorf("dedup failed: %d children", len(d2.Children))
	}
	// Single query: plain tree.
	d3, err := Initial(qs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if d3.Kind != All {
		t.Errorf("single query should yield All root, got %v", d3.Kind)
	}
	if _, err := Initial(nil); err == nil {
		t.Error("empty log must error")
	}
}

func TestExpressibleInitial(t *testing.T) {
	qs := paperQueries(t)
	d, _ := Initial(qs)
	for i, q := range qs {
		if !Expressible(d, q) {
			t.Errorf("query %d not expressible in initial state", i)
		}
	}
	other := sqlparser.MustParse("SELECT Sales FROM sales WHERE cty = EUR")
	if Expressible(d, other) {
		t.Error("initial state must express exactly the input queries")
	}
}

func TestExpressibleFigure4(t *testing.T) {
	d := figure4Tree()
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	for i, q := range paperQueries(t) {
		if !Expressible(d, q) {
			t.Errorf("paper query %d not expressible in Figure 4 tree", i)
		}
	}
	// Figure 4 "can express more queries than the initial difftree":
	extra := sqlparser.MustParse("SELECT Sales FROM sales WHERE cty = EUR")
	if !Expressible(d, extra) {
		t.Error("Figure 4 tree should express the generalized query")
	}
	// ...but not arbitrary queries.
	if Expressible(d, sqlparser.MustParse("SELECT Profit FROM sales")) {
		t.Error("unknown column should not be expressible")
	}
	if Expressible(d, sqlparser.MustParse("SELECT Sales FROM other")) {
		t.Error("unknown table should not be expressible")
	}
}

func TestExpressAssignments(t *testing.T) {
	d := figure4Tree()
	qs := paperQueries(t)

	a1, ok := Express(d, qs[0])
	if !ok {
		t.Fatal("q1 inexpressible")
	}
	a2, ok := Express(d, qs[1])
	if !ok {
		t.Fatal("q2 inexpressible")
	}
	a3, ok := Express(d, qs[2])
	if !ok {
		t.Fatal("q3 inexpressible")
	}

	// q1 vs q2 differ in both the Project ANY and the StrExpr ANY (2 widgets).
	ch12 := a1.Changed(a2)
	if len(ch12) != 2 {
		t.Errorf("q1->q2 changed %d choice nodes, want 2 (%s vs %s)",
			len(ch12), DescribeAssignment(d, a1), DescribeAssignment(d, a2))
	}
	// q2 vs q3 differ only in the OPT(Where) toggle: the StrExpr choice
	// disappears when the Where clause is off.
	ch23 := a2.Changed(a3)
	if len(ch23) != 2 { // OPT itself + vanished StrExpr ANY
		t.Errorf("q2->q3 changed %d choice nodes, want 2", len(ch23))
	}
	// Same query: no changes.
	if n := len(a1.Changed(a1)); n != 0 {
		t.Errorf("self-diff = %d", n)
	}
}

func TestExpressMulti(t *testing.T) {
	// MULTI over BETWEEN conjuncts: And[Multi[Between(col?,num?,num?)]]
	between := NewAll(ast.KindBetween, "",
		NewAny(
			NewAll(ast.KindColExpr, "u"),
			NewAll(ast.KindColExpr, "g"),
		),
		NewAll(ast.KindNumExpr, "0"),
		NewAll(ast.KindNumExpr, "30"),
	)
	d := NewAll(ast.KindAnd, "", NewMulti(between))
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}

	mk := func(src string) *ast.Node {
		q := sqlparser.MustParse("select a from t where " + src)
		return q.ChildOfKind(ast.KindWhere).Children[0]
	}
	two := mk("u between 0 and 30 and g between 0 and 30")
	if !Expressible(d, two) {
		t.Error("2 instances should match")
	}
	one := &ast.Node{Kind: ast.KindAnd, Children: []*ast.Node{mk("u between 0 and 30 and g between 0 and 30").Children[0]}}
	if !Expressible(d, one) {
		t.Error("1 instance should match")
	}
	zero := &ast.Node{Kind: ast.KindAnd}
	if !Expressible(d, zero) {
		t.Error("0 instances should match")
	}
	bad := mk("u between 0 and 31 and g between 0 and 30")
	if Expressible(d, bad) {
		t.Error("literal mismatch must not match")
	}
	a2, _ := Express(d, two)
	a0, _ := Express(d, zero)
	if len(a2.Changed(a0)) == 0 {
		t.Error("different instance counts must change the Multi widget")
	}
}

func TestValidate(t *testing.T) {
	good := figure4Tree()
	if err := Validate(good); err != nil {
		t.Fatal(err)
	}
	bad := []*Node{
		NewAny(),      // ANY with no children
		{Kind: Opt},   // OPT without child
		{Kind: Multi}, // MULTI without child
		NewMulti(NewOpt(NewAll(ast.KindColExpr, "a"))), // nullable MULTI child
		NewMulti(Emptyn()),                                             // nullable MULTI child
		{Kind: All, Label: ast.KindInvalid},                            // invalid label
		{Kind: All, Label: ast.KindEmpty, Children: []*Node{Emptyn()}}, // Empty with child
	}
	for i, b := range bad {
		if err := Validate(b); err == nil {
			t.Errorf("case %d: Validate should fail on %s", i, b)
		}
	}
}

func TestValidEdit(t *testing.T) {
	d := NewAll(ast.KindAnd, "", NewMulti(NewAll(ast.KindColExpr, "a")))
	for _, c := range []struct {
		repl *Node
		want bool
	}{
		{NewAll(ast.KindColExpr, "b"), true},
		{NewOpt(NewAll(ast.KindColExpr, "a")), false}, // nullable Multi child
		{NewAny(), false},                             // invalid replacement
	} {
		next := ReplaceAt(d, Path{0, 0}, c.repl)
		if got := ValidEdit(next, Path{0, 0}); got != c.want || got != (Validate(next) == nil) {
			t.Errorf("ValidEdit(%s) = %v, want %v (Validate: %v)", next, got, c.want, Validate(next))
		}
	}

	// The check is memoized per node: a subtree that passed is shared into
	// a replacement whose own root is invalid, and the verdict still reads
	// the fresh root; a valid replacement passes again from the memo.
	shared := NewAll(ast.KindAnd, "", NewAll(ast.KindColExpr, "a"))
	if !ValidEdit(ReplaceAt(d, Path{0, 0}, shared), Path{0, 0}) {
		t.Fatal("valid replacement rejected")
	}
	bad := &Node{Kind: Opt, Children: []*Node{shared, NewAll(ast.KindColExpr, "b")}}
	if next := ReplaceAt(d, Path{0, 0}, bad); ValidEdit(next, Path{0, 0}) {
		t.Errorf("ValidEdit(%s) = true over a memoized child, want false", next)
	}
	if !ValidEdit(ReplaceAt(d, Path{0, 0}, shared), Path{0, 0}) {
		t.Error("memoized valid replacement rejected")
	}
}

// TestExpressDescribeAssignment pins Express's witness on a tree with every
// choice kind: the chosen Any alternative, Opt on/off, and one "+" per Multi
// instance closed by "0".
func TestExpressDescribeAssignment(t *testing.T) {
	project := NewAll(ast.KindProject, "",
		NewAny(
			NewAll(ast.KindColExpr, "Sales"),
			NewAll(ast.KindColExpr, "Costs"),
		),
		NewMulti(NewAll(ast.KindColExpr, "extra")))
	from := NewAll(ast.KindFrom, "", NewAll(ast.KindTable, "sales"))
	where := NewOpt(NewAll(ast.KindWhere, "",
		NewAll(ast.KindBiExpr, "=",
			NewAll(ast.KindColExpr, "cty"),
			NewAny(
				NewAll(ast.KindStrExpr, "USA"),
				NewAll(ast.KindStrExpr, "EUR"),
			))))
	d := NewAll(ast.KindSelect, "", project, from, where)
	for _, c := range []struct{ q, want string }{
		{"SELECT Sales FROM sales WHERE cty = USA", "/0/0=0\n/0/1=0\n/2=on\n/2/0/0/1=0\n"},
		{"SELECT Costs, extra, extra FROM sales", "/0/0=1\n/0/1=+|+|0\n/2=off\n"},
	} {
		a, ok := Express(d, sqlparser.MustParse(c.q))
		if !ok {
			t.Fatalf("%q inexpressible", c.q)
		}
		if got := DescribeAssignment(d, a); got != c.want {
			t.Errorf("Express(%q) = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		n    *Node
		want bool
	}{
		{Emptyn(), true},
		{NewAll(ast.KindColExpr, "a"), false},
		{NewOpt(NewAll(ast.KindColExpr, "a")), true},
		{NewMulti(NewAll(ast.KindColExpr, "a")), true},
		{NewAny(NewAll(ast.KindColExpr, "a"), Emptyn()), true},
		{NewAny(NewAll(ast.KindColExpr, "a")), false},
		{NewAll(ast.KindSeq, "", Emptyn(), Emptyn()), true},
		{NewAll(ast.KindSeq, "", Emptyn(), NewAll(ast.KindColExpr, "a")), false},
		{nil, true},
	}
	for i, c := range cases {
		if got := Nullable(c.n); got != c.want {
			t.Errorf("case %d: Nullable(%s) = %v, want %v", i, c.n, got, c.want)
		}
	}
}

func TestCloneEqualHash(t *testing.T) {
	d := figure4Tree()
	c := d.Clone()
	if !Equal(d, c) {
		t.Fatal("clone not equal")
	}
	if Hash(d) != Hash(c) {
		t.Fatal("clone hash differs")
	}
	c.Children[0].Children[0].Children[0].Value = "Other"
	if Equal(d, c) {
		t.Fatal("deep clone violated")
	}
	// Hashes are memoized at first computation, so a structurally different
	// tree must be built fresh (mutating an already-hashed node is outside
	// the immutable-difftree contract).
	other := figure4Tree()
	other.Children[0].Children[0].Children[0].Value = "Other"
	if Hash(d) == Hash(other) {
		t.Error("different trees should hash differently")
	}
	if !Equal(nil, nil) || Equal(d, nil) {
		t.Error("nil equality wrong")
	}
	var n *Node
	if n.Clone() != nil || n.Size() != 0 || n.CountChoice() != 0 || n.HasChoice() {
		t.Error("nil node helpers wrong")
	}
}

func TestCountChoiceAndPaths(t *testing.T) {
	d := figure4Tree()
	if got := d.CountChoice(); got != 3 {
		t.Errorf("CountChoice = %d, want 3 (2 ANY + 1 OPT)", got)
	}
	var ps []Path
	WalkPath(d, func(n *Node, p Path) bool {
		if n.Kind.IsChoice() {
			ps = append(ps, p.Clone())
		}
		return true
	})
	if len(ps) != 3 {
		t.Fatalf("choice paths = %d", len(ps))
	}
	for _, p := range ps {
		if At(d, p) == nil || !At(d, p).Kind.IsChoice() {
			t.Errorf("path %s does not address a choice node", p)
		}
	}
	if At(d, Path{9}) != nil {
		t.Error("invalid path should be nil")
	}
	if At(d, nil) != d {
		t.Error("empty path is root")
	}
	if (Path{}).String() != "/" || (Path{1, 2}).String() != "/1/2" {
		t.Error("path rendering wrong")
	}
}

func TestReplaceAt(t *testing.T) {
	d := figure4Tree()
	repl := NewAll(ast.KindColExpr, "Profit")
	out := ReplaceAt(d, Path{0, 0, 0}, repl)
	if out == nil {
		t.Fatal("ReplaceAt failed")
	}
	if At(out, Path{0, 0, 0}).Value != "Profit" {
		t.Error("replacement missing")
	}
	if At(d, Path{0, 0, 0}).Value == "Profit" {
		t.Error("original mutated")
	}
	if ReplaceAt(d, Path{9, 9}, repl) != nil {
		t.Error("bad path should be nil")
	}
	if ReplaceAt(d, nil, repl) != repl {
		t.Error("empty path replaces root")
	}
}

func TestEnumerateQueries(t *testing.T) {
	d := figure4Tree()
	qs := EnumerateQueries(d, 100, 2)
	// 2 projections × (2 cty values + no-where) = 6 queries.
	if len(qs) != 6 {
		t.Fatalf("enumerated %d queries, want 6", len(qs))
	}
	for _, q := range qs {
		if !Expressible(d, q) {
			t.Errorf("enumerated query not expressible: %s", sqlparser.Render(q))
		}
	}
	if got := len(EnumerateQueries(d, 3, 2)); got != 3 {
		t.Errorf("EnumerateQueries limit: got %d", got)
	}
	if got := EnumerateQueries(d, 0, 2); got != nil {
		t.Error("limit 0 should return nil")
	}
}

func TestEnumerateMulti(t *testing.T) {
	between := NewAll(ast.KindBetween, "",
		NewAll(ast.KindColExpr, "u"),
		NewAll(ast.KindNumExpr, "0"),
		NewAll(ast.KindNumExpr, "30"))
	d := NewAll(ast.KindAnd, "", NewMulti(between))
	qs := EnumerateQueries(d, 10, 3)
	// 0,1,2,3 instances → 4 distinct Ands.
	if len(qs) != 4 {
		t.Fatalf("multi enumeration = %d, want 4", len(qs))
	}
}

func TestStringNotation(t *testing.T) {
	d := NewAny(NewAll(ast.KindColExpr, "Sales"), Emptyn())
	s := d.String()
	if !strings.Contains(s, "ANY[") || !strings.Contains(s, "ColExpr:Sales") || !strings.Contains(s, "Empty") {
		t.Errorf("String() = %q", s)
	}
	var n *Node
	if n.String() != "<nil>" {
		t.Error("nil String wrong")
	}
}

func TestOptionLabels(t *testing.T) {
	anyNode := NewAny(
		NewAll(ast.KindColExpr, "Sales"),
		NewAll(ast.KindColExpr, "Costs"),
		Emptyn(),
	)
	labels := OptionLabels(anyNode)
	if labels[0] != "Sales" || labels[1] != "Costs" || labels[2] != "(none)" {
		t.Errorf("labels = %v", labels)
	}
	// Long fragments fall back to generic labels.
	long := FromAST(sqlparser.MustParse("select top 10 objid from stars where u between 0 and 30 and g between 0 and 30"))
	if got := OptionLabel(4, long); got != "option 5" {
		t.Errorf("long label = %q", got)
	}
	// Choice-bearing alternative falls back too.
	withChoice := NewAll(ast.KindWhere, "", NewAny(Emptyn(), NewAll(ast.KindColExpr, "x")))
	if got := OptionLabel(0, withChoice); got != "option 1" {
		t.Errorf("choice label = %q", got)
	}
	// Seq alternatives render joined.
	seq := NewAll(ast.KindSeq, "", NewAll(ast.KindColExpr, "a"), NewAll(ast.KindColExpr, "b"))
	if got := OptionLabel(0, seq); got != "a b" {
		t.Errorf("seq label = %q", got)
	}
}

func TestNodeTitle(t *testing.T) {
	d := figure4Tree()
	projAny := d.Children[0].Children[0]
	if got := NodeTitle(projAny); got != "ColExpr" {
		t.Errorf("title = %q", got)
	}
	whereOpt := d.Children[2]
	if got := NodeTitle(whereOpt); got != "Where" {
		t.Errorf("opt title = %q", got)
	}
	mixed := NewAny(NewAll(ast.KindColExpr, "a"), NewAll(ast.KindTable, "t"))
	if got := NodeTitle(mixed); got != "choice" {
		t.Errorf("mixed title = %q", got)
	}
	multi := NewMulti(NewAll(ast.KindBetween, "", NewAll(ast.KindColExpr, "u"), NewAll(ast.KindNumExpr, "0"), NewAll(ast.KindNumExpr, "1")))
	if got := NodeTitle(multi); got != "Between" {
		t.Errorf("multi title = %q", got)
	}
	if got := NodeTitle(NewAll(ast.KindColExpr, "a")); got != "" {
		t.Errorf("non-choice title = %q", got)
	}
}

func TestExpressBudgetTermination(t *testing.T) {
	// A deliberately ambiguous tree: nested Anys with many identical options.
	// The matcher must terminate (budget) even when no match exists.
	opts := make([]*Node, 12)
	for i := range opts {
		opts[i] = NewAll(ast.KindColExpr, "x")
	}
	inner := NewAny(opts...)
	d := NewAll(ast.KindProject, "", NewMulti(inner))
	var cols []*ast.Node
	for i := 0; i < 12; i++ {
		cols = append(cols, ast.Leaf(ast.KindColExpr, "x"))
	}
	cols = append(cols, ast.Leaf(ast.KindColExpr, "y")) // unmatchable tail
	q := &ast.Node{Kind: ast.KindProject, Children: cols}
	if Expressible(d, q) {
		t.Error("should not match")
	}
}
