package assign

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/widgets"
)

// figure4Tree mirrors the paper's Figure 4 difftree.
func figure4Tree() *difftree.Node {
	project := difftree.NewAll(ast.KindProject, "",
		difftree.NewAny(
			difftree.NewAll(ast.KindColExpr, "Sales"),
			difftree.NewAll(ast.KindColExpr, "Costs"),
		))
	from := difftree.NewAll(ast.KindFrom, "", difftree.NewAll(ast.KindTable, "sales"))
	where := difftree.NewOpt(difftree.NewAll(ast.KindWhere, "",
		difftree.NewAll(ast.KindBiExpr, "=",
			difftree.NewAll(ast.KindColExpr, "cty"),
			difftree.NewAny(
				difftree.NewAll(ast.KindStrExpr, "USA"),
				difftree.NewAll(ast.KindStrExpr, "EUR"),
			))))
	return difftree.NewAll(ast.KindSelect, "", project, from, where)
}

// Figure4Tree hands figure4Tree to the package's external tests.
var Figure4Tree = figure4Tree

func TestBuildPlanFigure4(t *testing.T) {
	d := figure4Tree()
	p, err := BuildPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	// Decisions: widget for Project-ANY, widget for OPT toggle, widget for
	// StrExpr-ANY, box for OPT group, box for Select root = 5.
	if p.Decisions() != 5 {
		t.Errorf("Decisions = %d, want 5", p.Decisions())
	}
	ui := p.First()
	if ui == nil {
		t.Fatal("First returned nil")
	}
	// All three choice nodes have widgets.
	if got := ui.CountWidgets(); got != 3 {
		t.Errorf("widgets = %d, want 3\n%s", got, layout.RenderASCII(ui))
	}
	// The Figure-2(b) grouping: the toggle and the StrExpr widget share a box.
	byChoice := ui.ByChoice()
	whereOpt := d.Children[2]
	strAny := whereOpt.Children[0].Children[0].Children[1]
	if byChoice[whereOpt] == nil || byChoice[strAny] == nil {
		t.Fatal("missing widgets for OPT or inner ANY")
	}
}

func TestPlanSpaceAndEnumerate(t *testing.T) {
	d := figure4Tree()
	p, _ := BuildPlan(d)
	size := p.SpaceSize(1 << 20)
	if size < 8 {
		t.Fatalf("space too small: %d", size)
	}
	seen := 0
	exhaustive := p.Enumerate(1<<20, func(ui *layout.Node) bool {
		seen++
		if ui.CountWidgets() != 3 {
			t.Fatalf("assignment with %d widgets", ui.CountWidgets())
		}
		return true
	})
	if !exhaustive {
		t.Error("enumeration should be exhaustive under a large cap")
	}
	if seen != size {
		t.Errorf("enumerated %d, SpaceSize says %d", seen, size)
	}
	// Capped enumeration stops early and reports non-exhaustive.
	seen = 0
	if p.Enumerate(3, func(*layout.Node) bool { seen++; return true }) {
		t.Error("capped enumeration must report non-exhaustive")
	}
	if seen != 3 {
		t.Errorf("cap ignored: %d", seen)
	}
	// Early stop by callback.
	if !p.Enumerate(10, func(*layout.Node) bool { return false }) {
		t.Error("callback stop reports true (caller aborted, not the cap)")
	}
}

func TestRandomAssignmentsDeterministic(t *testing.T) {
	d := figure4Tree()
	p, _ := BuildPlan(d)
	a := p.Random(rand.New(rand.NewSource(42)))
	b := p.Random(rand.New(rand.NewSource(42)))
	if layout.RenderASCII(a) != layout.RenderASCII(b) {
		t.Error("same seed must give same assignment")
	}
	// Different seeds eventually differ.
	diff := false
	for s := int64(0); s < 10 && !diff; s++ {
		c := p.Random(rand.New(rand.NewSource(s)))
		if layout.RenderASCII(c) != layout.RenderASCII(a) {
			diff = true
		}
	}
	if !diff {
		t.Error("assignments never vary across seeds")
	}
}

func TestInitialStateSingleWidget(t *testing.T) {
	// ANY over whole queries (paper Figure 2(a)): one widget choosing among
	// the queries.
	q1 := difftree.FromAST(ast.New(ast.KindSelect, "",
		ast.New(ast.KindProject, "", ast.Leaf(ast.KindColExpr, "a")),
		ast.New(ast.KindFrom, "", ast.Leaf(ast.KindTable, "t"))))
	q2 := difftree.FromAST(ast.New(ast.KindSelect, "",
		ast.New(ast.KindProject, "", ast.Leaf(ast.KindColExpr, "b")),
		ast.New(ast.KindFrom, "", ast.Leaf(ast.KindTable, "t"))))
	d := difftree.NewAny(q1, q2)
	p, err := BuildPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	ui := p.First()
	if ui.CountWidgets() != 1 {
		t.Fatalf("want single widget, got:\n%s", layout.RenderASCII(ui))
	}
	if ui.Choice != d {
		t.Error("widget must control the root ANY")
	}
	if ui.Domain.Scalar {
		t.Error("whole queries are not scalar options")
	}
}

func TestNestedChoiceNeedsTabs(t *testing.T) {
	inner := difftree.NewAny(
		difftree.NewAll(ast.KindStrExpr, "USA"),
		difftree.NewAll(ast.KindStrExpr, "EUR"))
	alt1 := difftree.NewAll(ast.KindWhere, "",
		difftree.NewAll(ast.KindBiExpr, "=", difftree.NewAll(ast.KindColExpr, "cty"), inner))
	alt2 := difftree.NewAll(ast.KindWhere, "",
		difftree.NewAll(ast.KindBiExpr, "<", difftree.NewAll(ast.KindColExpr, "pop"), difftree.NewAll(ast.KindNumExpr, "5")))
	d := difftree.NewAny(alt1, alt2)
	p, err := BuildPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	ui := p.First()
	if ui.Type != widgets.Tabs {
		t.Fatalf("nested ANY should become tabs, got %s", ui.Type)
	}
	if len(ui.Children) != 1 {
		t.Errorf("only the choice-bearing alternative forms a panel, got %d", len(ui.Children))
	}
	if ui.CountWidgets() != 2 {
		t.Errorf("tabs + inner widget, got %d", ui.CountWidgets())
	}
}

func TestTooManyNestedAlternativesFails(t *testing.T) {
	var alts []*difftree.Node
	for i := 0; i < 8; i++ {
		alts = append(alts, difftree.NewAll(ast.KindWhere, "",
			difftree.NewAny(
				difftree.NewAll(ast.KindNumExpr, "1"),
				difftree.NewAll(ast.KindNumExpr, "2"))))
	}
	d := difftree.NewAny(alts...)
	_, err := BuildPlan(d)
	if !errors.Is(err, ErrNoWidget) {
		t.Fatalf("want ErrNoWidget, got %v", err)
	}
}

// TestInfeasiblePlanRendersNoLabel puts the infeasible nested choice of
// TestTooManyNestedAlternativesFails after a feasible choice between long
// predicates, whose option labels would take more allocations to render the
// longer they get. Planning fails without rendering any label, so its
// allocation count does not grow with the predicates' length.
func TestInfeasiblePlanRendersNoLabel(t *testing.T) {
	tree := func(terms int) *difftree.Node {
		pred := func(col string) *difftree.Node {
			var conj []*difftree.Node
			for i := 0; i < terms; i++ {
				conj = append(conj, difftree.NewAll(ast.KindBiExpr, "=",
					difftree.NewAll(ast.KindColExpr, col), difftree.NewAll(ast.KindNumExpr, "1")))
			}
			return difftree.NewAll(ast.KindAnd, "", conj...)
		}
		var nested []*difftree.Node
		for i := 0; i < 8; i++ {
			nested = append(nested, difftree.NewAll(ast.KindWhere, "",
				difftree.NewAny(
					difftree.NewAll(ast.KindNumExpr, "1"),
					difftree.NewAll(ast.KindNumExpr, "2"))))
		}
		return difftree.NewAll(ast.KindSelect, "",
			difftree.NewAll(ast.KindWhere, "", difftree.NewAny(pred("u"), pred("g"))),
			difftree.NewAny(nested...))
	}
	allocs := func(terms int) float64 {
		d := tree(terms)
		if _, err := BuildPlan(d); !errors.Is(err, ErrNoWidget) {
			t.Fatalf("%d terms: want ErrNoWidget, got %v", terms, err)
		}
		return testing.AllocsPerRun(20, func() { _, _ = BuildPlan(d) })
	}
	bound := allocs(1)
	for _, terms := range []int{4, 64} {
		if got := allocs(terms); got > bound {
			t.Errorf("BuildPlan of an infeasible tree with %d-term alternatives: %.0f allocations, %.0f with 1 term", terms, got, bound)
		}
	}
}

func TestSingletonAnyFails(t *testing.T) {
	d := difftree.NewAny(difftree.NewAll(ast.KindColExpr, "a"), difftree.NewAll(ast.KindColExpr, "a"))
	// Two identical options dedupe to labels but cardinality 2 is fine;
	// a true singleton is the failure case.
	single := difftree.NewAny(difftree.NewAll(ast.KindColExpr, "a"))
	if _, err := BuildPlan(single); !errors.Is(err, ErrNoWidget) {
		t.Errorf("singleton ANY: want ErrNoWidget, got %v", err)
	}
	if _, err := BuildPlan(d); err != nil {
		t.Errorf("2 options should plan: %v", err)
	}
}

func TestMultiBecomesAdder(t *testing.T) {
	between := difftree.NewAll(ast.KindBetween, "",
		difftree.NewAny(difftree.NewAll(ast.KindColExpr, "u"), difftree.NewAll(ast.KindColExpr, "g")),
		difftree.NewAll(ast.KindNumExpr, "0"),
		difftree.NewAll(ast.KindNumExpr, "30"))
	d := difftree.NewAll(ast.KindAnd, "", difftree.NewMulti(between))
	p, err := BuildPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	ui := p.First()
	if ui.Type != widgets.Adder {
		t.Fatalf("MULTI should become adder, got %s", ui.Type)
	}
	if len(ui.Children) != 1 {
		t.Fatal("adder should contain the instance template")
	}
	if ui.Domain.Kind != widgets.RepeatDomain {
		t.Error("adder domain kind wrong")
	}
}

func TestStaticMultiAdder(t *testing.T) {
	between := difftree.NewAll(ast.KindBetween, "",
		difftree.NewAll(ast.KindColExpr, "u"),
		difftree.NewAll(ast.KindNumExpr, "0"),
		difftree.NewAll(ast.KindNumExpr, "30"))
	d := difftree.NewAll(ast.KindAnd, "", difftree.NewMulti(between))
	p, err := BuildPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	ui := p.First()
	if ui.Type != widgets.Adder || len(ui.Children) != 0 {
		t.Fatalf("static MULTI should be a childless adder: %s", layout.RenderASCII(ui))
	}
}

func TestChoiceFreeTreeHasNoUI(t *testing.T) {
	d := difftree.FromAST(ast.New(ast.KindSelect, "",
		ast.New(ast.KindProject, "", ast.Leaf(ast.KindColExpr, "a")),
		ast.New(ast.KindFrom, "", ast.Leaf(ast.KindTable, "t"))))
	p, err := BuildPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Decisions() != 0 {
		t.Error("static tree should have no decisions")
	}
	if p.First() != nil {
		t.Error("static tree should have no widget tree")
	}
}

func TestDomainOf(t *testing.T) {
	// Numeric scalar domain.
	num := difftree.NewAny(
		difftree.NewAll(ast.KindNumExpr, "10"),
		difftree.NewAll(ast.KindNumExpr, "100"),
		difftree.NewAll(ast.KindNumExpr, "1000"))
	d := DomainOf(num, nil)
	if !d.Numeric || !d.Scalar || d.Nested {
		t.Errorf("numeric domain flags wrong: %+v", d)
	}
	if len(d.Options) != 3 || d.Options[0] != "10" {
		t.Errorf("options wrong: %v", d.Options)
	}

	// BETWEEN bounds context.
	parent := difftree.NewAll(ast.KindBetween, "", difftree.NewAll(ast.KindColExpr, "u"), num, difftree.NewAll(ast.KindNumExpr, "30"))
	db := DomainOf(num, parent)
	if !db.Bounds {
		t.Error("bounds flag missing under BETWEEN")
	}

	// Empty alternative kills numeric but keeps options.
	withEmpty := difftree.NewAny(difftree.Emptyn(), difftree.NewAll(ast.KindNumExpr, "5"), difftree.NewAll(ast.KindNumExpr, "6"))
	de := DomainOf(withEmpty, nil)
	if de.Numeric {
		t.Error("(none) option is not numeric")
	}
	if de.Options[0] != "(none)" {
		t.Errorf("empty label = %q", de.Options[0])
	}

	// Opt and Multi domains.
	opt := difftree.NewOpt(difftree.NewAll(ast.KindWhere, "", difftree.NewAll(ast.KindColExpr, "x")))
	if DomainOf(opt, nil).Kind != widgets.ToggleDomain {
		t.Error("OPT domain kind")
	}
	multi := difftree.NewMulti(difftree.NewAll(ast.KindBetween, "", difftree.NewAll(ast.KindColExpr, "u"), difftree.NewAll(ast.KindNumExpr, "0"), difftree.NewAll(ast.KindNumExpr, "1")))
	if DomainOf(multi, nil).Kind != widgets.RepeatDomain {
		t.Error("MULTI domain kind")
	}

	// Subtree (non-scalar) options.
	sub := difftree.NewAny(
		difftree.NewAll(ast.KindBiExpr, "=", difftree.NewAll(ast.KindColExpr, "a"), difftree.NewAll(ast.KindNumExpr, "1")),
		difftree.NewAll(ast.KindBiExpr, "=", difftree.NewAll(ast.KindColExpr, "b"), difftree.NewAll(ast.KindNumExpr, "2")))
	ds := DomainOf(sub, nil)
	if ds.Scalar || ds.Numeric {
		t.Error("subtree domain must not be scalar")
	}
}

func TestCandidateOrderIsByCost(t *testing.T) {
	num := difftree.NewAny(
		difftree.NewAll(ast.KindNumExpr, "10"),
		difftree.NewAll(ast.KindNumExpr, "100"))
	dom := DomainOf(num, nil)
	cands := sortedCandidates(dom, widgets.Tabs)
	for i := 1; i < len(cands); i++ {
		if widgets.Appropriateness(cands[i-1], dom) > widgets.Appropriateness(cands[i], dom) {
			t.Fatalf("candidates not cost-sorted: %v", cands)
		}
	}
	for _, c := range cands {
		if c == widgets.Tabs {
			t.Error("excluded type present")
		}
	}
}

func TestAssignmentVectorMismatchPanics(t *testing.T) {
	d := figure4Tree()
	p, _ := BuildPlan(d)
	defer func() {
		if recover() == nil {
			t.Error("short vector should panic")
		}
	}()
	p.Assignment([]int{0})
}
