// Package layout implements the widget tree (paper Figure 3): a hierarchical
// arrangement of layout widgets (vertical, horizontal, adder) and interaction
// widgets (dropdown, radio, toggle, ...). It computes bounding boxes for the
// screen-size constraint and renders trees as ASCII art or HTML.
package layout

import (
	"fmt"

	"repro/internal/difftree"
	"repro/internal/widgets"
)

// Screen is the output screen constraint in layout units.
type Screen struct {
	W, H int
}

// Screen presets mirroring Figure 6(a) (wide) and 6(b) (narrow).
var (
	Wide   = Screen{W: 1200, H: 800}
	Narrow = Screen{W: 420, H: 800}
)

func (s Screen) String() string { return fmt.Sprintf("%dx%d", s.W, s.H) }

// Node is one widget-tree node. Interaction widgets are leaves except Tabs
// (one child panel per alternative) and Adder (the repeated instance
// template as its only child).
type Node struct {
	Type     widgets.Type
	Domain   widgets.Domain
	Title    string
	Choice   *difftree.Node // difftree choice node this widget controls; nil for layout nodes
	Children []*Node
}

// NewWidget constructs an interaction widget leaf bound to a choice node.
func NewWidget(t widgets.Type, d widgets.Domain, choice *difftree.Node) *Node {
	return &Node{Type: t, Domain: d, Title: d.Title, Choice: choice}
}

// NewBox constructs a layout container.
func NewBox(t widgets.Type, children ...*Node) *Node {
	return &Node{Type: t, Children: children}
}

// Walk visits the tree in pre-order.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Widgets returns all interaction-widget nodes in pre-order (Tabs and Adder
// included: they both expose a choice).
func (n *Node) Widgets() []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Choice != nil {
			out = append(out, x)
		}
		return true
	})
	return out
}

// CountWidgets counts interaction widgets.
func (n *Node) CountWidgets() int { return len(n.Widgets()) }

// ByChoice indexes the tree's widgets by the difftree choice node they
// control.
func (n *Node) ByChoice() map[*difftree.Node]*Node {
	m := make(map[*difftree.Node]*Node)
	n.Walk(func(x *Node) bool {
		if x.Choice != nil {
			m[x.Choice] = x
		}
		return true
	})
	return m
}

// Clone deep-copies the tree (Choice pointers are shared, they identify
// difftree nodes).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Type: n.Type, Domain: n.Domain, Title: n.Title, Choice: n.Choice}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Bounds computes the node's bounding box (paper: blue boxes in Figure 2).
func (n *Node) Bounds() widgets.Size {
	if n == nil {
		return widgets.Size{}
	}
	switch n.Type {
	case widgets.VBox:
		var w, h int
		for i, c := range n.Children {
			b := c.Bounds()
			if b.W > w {
				w = b.W
			}
			h += b.H
			if i > 0 {
				h += widgets.Spacing
			}
		}
		return widgets.Size{W: w + 2*widgets.Pad, H: h + 2*widgets.Pad}

	case widgets.HBox:
		var w, h int
		for i, c := range n.Children {
			b := c.Bounds()
			if b.H > h {
				h = b.H
			}
			w += b.W
			if i > 0 {
				w += widgets.Spacing
			}
		}
		return widgets.Size{W: w + 2*widgets.Pad, H: h + 2*widgets.Pad}

	case widgets.Adder:
		// The instance template plus an add/remove button row; we budget
		// room for two visible instances so repeated clauses fit.
		var child widgets.Size
		if len(n.Children) > 0 {
			child = n.Children[0].Bounds()
		}
		return widgets.Size{
			W: max(child.W, 96) + 2*widgets.Pad,
			H: 2*child.H + widgets.RowH + widgets.Spacing + 2*widgets.Pad,
		}

	case widgets.Tabs:
		bar := widgets.Measure(widgets.Tabs, n.Domain)
		var panel widgets.Size
		for _, c := range n.Children {
			b := c.Bounds()
			if b.W > panel.W {
				panel.W = b.W
			}
			if b.H > panel.H {
				panel.H = b.H
			}
		}
		return widgets.Size{
			W: max(bar.W, panel.W) + 2*widgets.Pad,
			H: bar.H + panel.H + widgets.Spacing + 2*widgets.Pad,
		}

	default:
		return widgets.Measure(n.Type, n.Domain)
	}
}
