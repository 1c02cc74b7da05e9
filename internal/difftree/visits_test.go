package difftree

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// visitsTree is figure4Tree with a MULTI column list added to the Project:
// ALL(Select)[ ALL(Project)[ ANY[Sales Costs] MULTI[extra] ] From/Table
// OPT(Where[cty = ANY[USA EUR]]) ].
func visitsTree() *Node {
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
	return NewAll(ast.KindSelect, "", project, from, where)
}

func TestQueryVisits(t *testing.T) {
	d := visitsTree()
	qs := []*ast.Node{
		sqlparser.MustParse("SELECT Sales FROM sales WHERE cty = USA"),
		sqlparser.MustParse("SELECT Costs, extra, extra FROM sales"),
	}
	// The nodes each derivation does NOT visit, by path: the untaken Any
	// alternatives, the zero-instance Multi child (q0), and everything
	// under the Opt left off (q1).
	notVisited := []map[string]bool{
		{"/0/0/1": true, "/0/1/0": true, "/2/0/0/1/1": true},
		{"/0/0/0": true, "/2/0": true, "/2/0/0": true, "/2/0/0/0": true,
			"/2/0/0/1": true, "/2/0/0/1/0": true, "/2/0/0/1/1": true},
	}
	var v QueryVisits
	v.Index(d, qs)
	pos := -1
	WalkPath(d, func(n *Node, p Path) bool {
		pos++
		affected := v.Affected(nil, qs, pos)
		for j, q := range qs {
			visited := len(affected) > 0 && affected[0] == q
			if visited {
				affected = affected[1:]
			}
			if want := !notVisited[j][p.String()]; visited != want {
				t.Errorf("query %d: visits %s (%s) = %v, want %v", j, p, n.Kind, visited, want)
			}
		}
		if v.Size(pos) != n.Size() {
			t.Errorf("Size(%s) = %d, want %d", p, v.Size(pos), n.Size())
		}
		return true
	})

	// Express output is unchanged by the trail's child-index encoding.
	wantAsg := []string{
		"/0/0=0\n/0/1=0\n/2=on\n/2/0/0/1=0\n",
		"/0/0=1\n/0/1=+|+|0\n/2=off\n",
	}
	for j, q := range qs {
		a, ok := Express(d, q)
		if !ok {
			t.Fatalf("query %d inexpressible", j)
		}
		if got := DescribeAssignment(d, a); got != wantAsg[j] {
			t.Errorf("query %d: Express = %q, want %q", j, got, wantAsg[j])
		}
	}
}

// TestQueryVisitsAffected covers the bitset layout past one word and the
// queries that every edit must re-match.
func TestQueryVisitsAffected(t *testing.T) {
	d := visitsTree()
	q0 := sqlparser.MustParse("SELECT Sales FROM sales WHERE cty = USA")
	q1 := sqlparser.MustParse("SELECT Costs, extra, extra FROM sales")
	never := sqlparser.MustParse("SELECT Sales FROM other")
	var qs []*ast.Node
	for i := 0; i < 70; i++ {
		qs = append(qs, q0, q1)
	}
	qs = append(qs, never) // query 140, in the third word
	var v QueryVisits
	v.Index(d, qs)

	// /2/0 (the Where under the Opt) is visited by q0's copies only.
	pos := -1
	var wherePos int
	WalkPath(d, func(n *Node, p Path) bool {
		pos++
		if p.String() == "/2/0" {
			wherePos = pos
		}
		return true
	})
	got := v.Affected(nil, qs, wherePos)
	if len(got) != 71 {
		t.Fatalf("Affected(/2/0) = %d queries, want 70 copies of q0 plus the inexpressible one", len(got))
	}
	for i, q := range got[:70] {
		if q != q0 {
			t.Fatalf("Affected(/2/0)[%d] is not q0", i)
		}
	}
	if got[70] != never {
		t.Error("the inexpressible query must be affected by every edit")
	}
	if n := len(v.Affected(nil, qs, 0)); n != len(qs) {
		t.Errorf("Affected(root) = %d queries, want all %d", n, len(qs))
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
}
