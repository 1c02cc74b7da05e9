package ast

import "testing"

func sampleTree() *Node {
	return New(KindSelect, "",
		New(KindProject, "", Leaf(KindColExpr, "objid")),
		New(KindFrom, "", Leaf(KindTable, "stars")),
		New(KindWhere, "",
			New(KindBetween, "",
				Leaf(KindColExpr, "u"),
				Leaf(KindNumExpr, "0"),
				Leaf(KindNumExpr, "30"))),
	)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindSelect:  "Select",
		KindProject: "Project",
		KindBetween: "Between",
		KindEmpty:   "Empty",
		KindSeq:     "Seq",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestKindValid(t *testing.T) {
	if KindInvalid.Valid() {
		t.Error("KindInvalid should not be valid")
	}
	if !KindSelect.Valid() || !KindSeq.Valid() {
		t.Error("defined kinds should be valid")
	}
	if Kind(250).Valid() {
		t.Error("out-of-range kind should not be valid")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := sampleTree()
	cp := orig.Clone()
	if !Equal(orig, cp) {
		t.Fatal("clone not equal to original")
	}
	cp.Children[0].Children[0].Value = "changed"
	if Equal(orig, cp) {
		t.Fatal("mutating clone affected original (shallow copy)")
	}
	if orig.Children[0].Children[0].Value != "objid" {
		t.Fatal("original mutated")
	}
}

func TestCloneNil(t *testing.T) {
	var n *Node
	if n.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestSizeDepth(t *testing.T) {
	n := sampleTree()
	if got := n.Size(); got != 10 {
		t.Errorf("Size = %d, want 10", got)
	}
	if got := n.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	var nilNode *Node
	if nilNode.Size() != 0 || nilNode.Depth() != 0 {
		t.Error("nil node should have size/depth 0")
	}
}

func TestEqual(t *testing.T) {
	a, b := sampleTree(), sampleTree()
	if !Equal(a, b) {
		t.Fatal("identical trees not Equal")
	}
	b.Children[2].Children[0].Children[1].Value = "1"
	if Equal(a, b) {
		t.Fatal("trees differing in a literal reported Equal")
	}
	if !Equal(nil, nil) {
		t.Error("nil == nil")
	}
	if Equal(a, nil) || Equal(nil, a) {
		t.Error("tree vs nil should be unequal")
	}
	c := sampleTree()
	c.Children = c.Children[:2]
	if Equal(a, c) {
		t.Error("different child counts reported Equal")
	}
}

func TestNumeric(t *testing.T) {
	n := Leaf(KindNumExpr, "12.5")
	if !n.IsNumericValue() {
		t.Error("12.5 should be numeric")
	}
	v, ok := n.Numeric()
	if !ok || v != 12.5 {
		t.Errorf("Numeric = %v,%v", v, ok)
	}
	s := Leaf(KindStrExpr, "USA")
	if s.IsNumericValue() {
		t.Error("USA should not be numeric")
	}
	var nilNode *Node
	if nilNode.IsNumericValue() {
		t.Error("nil not numeric")
	}
	if Leaf(KindStrExpr, "").IsNumericValue() {
		t.Error("empty value not numeric")
	}
}

func TestStringSexp(t *testing.T) {
	n := New(KindBiExpr, "=", Leaf(KindColExpr, "cty"), Leaf(KindStrExpr, "USA"))
	want := "(BiExpr:= (ColExpr:cty) (StrExpr:USA))"
	if got := n.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestHashEqualTrees(t *testing.T) {
	if Hash(sampleTree()) != Hash(sampleTree()) {
		t.Error("equal trees must hash equally")
	}
	a := sampleTree()
	b := sampleTree()
	b.Children[0].Children[0].Value = "count"
	if Hash(a) == Hash(b) {
		t.Error("different trees should (almost surely) hash differently")
	}
}

func TestHashChildBoundary(t *testing.T) {
	// (A (B) (C)) must not collide with (A (B (C))).
	flat := New(KindAnd, "", Leaf(KindColExpr, "b"), Leaf(KindColExpr, "c"))
	nested := New(KindAnd, "", New(KindColExpr, "b", Leaf(KindColExpr, "c")))
	if Hash(flat) == Hash(nested) {
		t.Error("hash must distinguish tree shapes")
	}
}

func TestDedup(t *testing.T) {
	a, b := sampleTree(), sampleTree()
	c := sampleTree()
	c.Children[0].Children[0].Value = "count"
	got := Dedup([]*Node{a, b, c, a.Clone()})
	if len(got) != 2 {
		t.Fatalf("Dedup returned %d trees, want 2", len(got))
	}
	if !Equal(got[0], a) || !Equal(got[1], c) {
		t.Error("Dedup should preserve first-occurrence order")
	}
}
