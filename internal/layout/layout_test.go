package layout

import (
	"strings"
	"testing"

	"repro/internal/difftree"
	"repro/internal/widgets"
)

func dom(opts ...string) widgets.Domain {
	return widgets.Domain{Kind: widgets.ChoiceDomain, Title: "Attr", Options: opts, Scalar: true}
}

func sampleTree() *Node {
	ch1 := difftree.NewAny(difftree.Emptyn(), difftree.Emptyn())
	ch2 := difftree.NewAny(difftree.Emptyn(), difftree.Emptyn())
	return NewBox(widgets.VBox,
		NewWidget(widgets.Radio, dom("objid", "count"), ch1),
		NewBox(widgets.HBox,
			NewWidget(widgets.Dropdown, dom("10", "100", "1000"), ch2),
			&Node{Type: widgets.Label, Title: "rows"},
		),
	)
}

func TestWalkAndWidgets(t *testing.T) {
	n := sampleTree()
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	if count != 5 {
		t.Errorf("walked %d nodes, want 5", count)
	}
	ws := n.Widgets()
	if len(ws) != 2 {
		t.Fatalf("Widgets = %d, want 2 (label has no choice)", len(ws))
	}
	if n.CountWidgets() != 2 {
		t.Error("CountWidgets wrong")
	}
	byC := n.ByChoice()
	for _, w := range ws {
		if byC[w.Choice] != w {
			t.Error("ByChoice index wrong")
		}
	}
	// Pruned walk.
	count = 0
	n.Walk(func(x *Node) bool { count++; return x.Type != widgets.HBox })
	if count != 3 {
		t.Errorf("pruned walk = %d, want 3", count)
	}
}

func TestClone(t *testing.T) {
	n := sampleTree()
	c := n.Clone()
	if c == n || c.Children[0] == n.Children[0] {
		t.Error("clone must copy nodes")
	}
	if c.Children[0].Choice != n.Children[0].Choice {
		t.Error("clone must share choice pointers")
	}
	var nilN *Node
	if nilN.Clone() != nil {
		t.Error("nil clone")
	}
}

func TestBoundsVBox(t *testing.T) {
	a := NewWidget(widgets.Dropdown, dom("aa", "bb"), nil)
	b := NewWidget(widgets.Dropdown, dom("cc", "dd"), nil)
	v := NewBox(widgets.VBox, a, b)
	av, bv := a.Bounds(), b.Bounds()
	got := v.Bounds()
	wantH := av.H + bv.H + widgets.Spacing + 2*widgets.Pad
	if got.H != wantH {
		t.Errorf("VBox height = %d, want %d", got.H, wantH)
	}
	if got.W != av.W+2*widgets.Pad {
		t.Errorf("VBox width = %d", got.W)
	}
}

func TestBoundsHBox(t *testing.T) {
	a := NewWidget(widgets.Dropdown, dom("aa", "bb"), nil)
	b := NewWidget(widgets.Toggle, widgets.Domain{Kind: widgets.ToggleDomain, Title: "Where"}, nil)
	h := NewBox(widgets.HBox, a, b)
	got := h.Bounds()
	aw, bw := a.Bounds(), b.Bounds()
	if got.W != aw.W+bw.W+widgets.Spacing+2*widgets.Pad {
		t.Errorf("HBox width = %d", got.W)
	}
	if got.H != max(aw.H, bw.H)+2*widgets.Pad {
		t.Errorf("HBox height = %d", got.H)
	}
}

func TestBoundsTabsAndAdder(t *testing.T) {
	panel := NewBox(widgets.VBox, NewWidget(widgets.Dropdown, dom("x", "y"), nil))
	tabs := &Node{Type: widgets.Tabs, Domain: dom("t1", "t2"), Title: "variant", Children: []*Node{panel}}
	tb := tabs.Bounds()
	if tb.H <= panel.Bounds().H {
		t.Error("tabs must be taller than their tallest panel")
	}
	adder := &Node{Type: widgets.Adder, Title: "Between", Domain: widgets.Domain{Kind: widgets.RepeatDomain}, Children: []*Node{panel}}
	ab := adder.Bounds()
	if ab.H <= panel.Bounds().H {
		t.Error("adder must reserve room for instances")
	}
	empty := &Node{Type: widgets.Adder, Domain: widgets.Domain{Kind: widgets.RepeatDomain}}
	if b := empty.Bounds(); b.W <= 0 || b.H <= 0 {
		t.Errorf("childless adder bounds = %v", b)
	}
	var nilNode *Node
	if (nilNode.Bounds() != widgets.Size{}) {
		t.Error("nil bounds")
	}
}

// fits reports whether the tree's bounding box fits the screen.
func fits(n *Node, s Screen) bool {
	b := n.Bounds()
	return b.W <= s.W && b.H <= s.H
}

// TestNarrowScreenRejectsWideLayouts is the geometric driver of Figure 6(b):
// a wide horizontal enumeration fits a wide screen but not a narrow one,
// while the dropdown version fits both.
func TestNarrowScreenRejectsWideLayouts(t *testing.T) {
	opts := []string{"option-a", "option-b", "option-c", "option-d", "option-e", "option-f"}
	buttons := NewBox(widgets.VBox,
		NewWidget(widgets.Buttons, dom(opts...), nil),
		NewWidget(widgets.Buttons, dom(opts...), nil),
	)
	if !fits(buttons, Wide) {
		t.Fatalf("buttons rows should fit the wide screen (%v)", buttons.Bounds())
	}
	if fits(buttons, Narrow) {
		t.Fatalf("buttons rows must overflow the narrow screen (%v)", buttons.Bounds())
	}
	dropdowns := NewBox(widgets.VBox,
		NewWidget(widgets.Dropdown, dom(opts...), nil),
		NewWidget(widgets.Dropdown, dom(opts...), nil),
	)
	if !fits(dropdowns, Narrow) {
		t.Fatalf("dropdown column should fit the narrow screen (%v)", dropdowns.Bounds())
	}
}

func TestScreenString(t *testing.T) {
	if Wide.String() != "1200x800" || Narrow.String() != "420x800" {
		t.Error("screen presets changed")
	}
}

func TestRenderASCII(t *testing.T) {
	out := RenderASCII(sampleTree())
	for _, want := range []string{"[vertical]", "[horizontal]", "radio", "dropdown", "objid", "1000", "(", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	if RenderASCII(nil) != "" {
		t.Error("nil renders empty")
	}
	// Long option lists are elided.
	many := NewWidget(widgets.Dropdown, dom("a", "b", "c", "d", "e", "f", "g", "h"), nil)
	if !strings.Contains(RenderASCII(many), "+2") {
		t.Error("long domains should elide options")
	}
	// Tabs and adder describe themselves.
	tabs := &Node{Type: widgets.Tabs, Domain: dom("x", "y"), Title: "v"}
	if !strings.Contains(RenderASCII(tabs), "tabs") {
		t.Error("tabs description missing")
	}
	adder := &Node{Type: widgets.Adder, Title: "preds", Domain: widgets.Domain{Kind: widgets.RepeatDomain}}
	if !strings.Contains(RenderASCII(adder), "adder") {
		t.Error("adder description missing")
	}
}

func TestRenderHTML(t *testing.T) {
	n := NewBox(widgets.VBox,
		NewWidget(widgets.Radio, dom("objid", "count"), nil),
		NewWidget(widgets.Dropdown, dom("10", "100"), nil),
		NewWidget(widgets.Buttons, dom("a", "b"), nil),
		NewWidget(widgets.Slider, dom("1", "2"), nil),
		NewWidget(widgets.Textbox, dom("x", "y"), nil),
		NewWidget(widgets.Toggle, widgets.Domain{Kind: widgets.ToggleDomain, Title: "Where"}, nil),
		&Node{Type: widgets.Label, Title: "static <text>"},
		&Node{Type: widgets.Adder, Title: "preds", Domain: widgets.Domain{Kind: widgets.RepeatDomain},
			Children: []*Node{NewWidget(widgets.Dropdown, dom("u", "g"), nil)}},
		&Node{Type: widgets.Tabs, Domain: dom("t1", "t2"), Title: "variant",
			Children: []*Node{NewBox(widgets.VBox)}},
	)
	out := RenderHTML(n)
	for _, want := range []string{
		"<select>", "<option>10</option>", "type=\"radio\"", "<button type=\"button\">a</button>",
		"type=\"range\"", "type=\"text\"", "type=\"checkbox\"", "role=\"tab\"", "+ add",
		"generated-interface", "flex-direction:column",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(out, "<text>") {
		t.Error("HTML must escape user strings")
	}
	if !strings.Contains(out, "&lt;text&gt;") {
		t.Error("escaped label missing")
	}
}
