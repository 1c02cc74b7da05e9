package rules

import (
	"repro/internal/ast"
	"repro/internal/difftree"
)

// Lift factors only the shared root out of an ANY:
//
//	ANY[ ALL(z)[xs...], ALL(z)[ys...] ]  →  ALL(z)[ ANY[ Seq(xs...), Seq(ys...) ] ]
//
// Unlike Any2All it does not align the child sequences; the ANY then holds
// the whole (headless) child sequences as Seq splices, which later rules can
// refine. This produces the intermediate states that give the paper its long
// (~100-step) search paths.
type Lift struct{}

// Name implements Rule.
func (Lift) Name() string { return "Lift" }

// Apply implements Rule.
func (Lift) Apply(n *difftree.Node) (*difftree.Node, bool) {
	label, value, ok := sameAllHead(n)
	if !ok {
		return nil, false
	}
	alts := make([]*difftree.Node, 0, len(n.Children))
	for _, b := range n.Children {
		alts = append(alts, seqOf(b.Children))
	}
	alts = dedup(alts)
	var inner *difftree.Node
	if len(alts) == 1 {
		inner = alts[0]
	} else {
		inner = difftree.NewAny(alts...)
	}
	if inner.IsSeq() {
		// Single branch whose children can be inlined directly.
		return difftree.NewAll(label, value, share(inner.Children)...), true
	}
	return difftree.NewAll(label, value, inner), true
}

// seqOf wraps a child sequence for splicing: zero children become ∅, one
// child passes through, several children become a Seq node. A lone child
// that is itself a Seq or ∅ is re-wrapped in a fresh Seq rather than
// reused: Unlift treats bare Seq/∅ alternatives as its own splice markers,
// so reusing the node would make Unlift(Lift(x)) dissolve x's wrapper.
func seqOf(cs []*difftree.Node) *difftree.Node {
	switch {
	case len(cs) == 0:
		return difftree.Emptyn()
	case len(cs) == 1 && !cs[0].IsSeq() && !cs[0].IsEmpty():
		return cs[0]
	default:
		return difftree.NewAll(ast.KindSeq, "", share(cs)...)
	}
}

// share copies the slice but not the subtrees: difftrees are immutable, so a
// rewrite may reference unchanged source subtrees directly (copy-on-write).
// The one constraint is that a source node must land at most ONCE in the
// output tree — widget assignment and cost attribution key maps by node
// pointer, so duplicating a pointer within one tree would conflate two
// positions. Every caller here satisfies that; All2Any, which emits a child
// into several branches, is the one rule that still deep-clones.
func share(cs []*difftree.Node) []*difftree.Node {
	out := make([]*difftree.Node, len(cs))
	copy(out, cs)
	return out
}

// Unlift is the inverse of Lift: an ALL whose only child is an ANY of
// spliceable sequences expands back to an ANY of complete ALL branches.
type Unlift struct{}

// Name implements Rule.
func (Unlift) Name() string { return "Unlift" }

// Apply implements Rule.
func (Unlift) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.All || n.IsEmpty() || n.Label == ast.KindSeq {
		return nil, false
	}
	if len(n.Children) != 1 || n.Children[0].Kind != difftree.Any {
		return nil, false
	}
	anyNode := n.Children[0]
	branches := make([]*difftree.Node, 0, len(anyNode.Children))
	for _, alt := range anyNode.Children {
		var kids []*difftree.Node
		switch {
		case alt.IsSeq():
			kids = share(alt.Children)
		case alt.IsEmpty():
			kids = nil
		default:
			kids = []*difftree.Node{alt}
		}
		branches = append(branches, difftree.NewAll(n.Label, n.Value, kids...))
	}
	branches = dedup(branches)
	if len(branches) == 1 {
		return branches[0], true
	}
	return difftree.NewAny(branches...), true
}
