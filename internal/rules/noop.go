package rules

import (
	"slices"

	"repro/internal/difftree"
)

// Optional converts an ANY with an ∅ alternative into an OPT (paper:
// ANY[∅, z] → OPT[z]); multiple non-empty alternatives nest an inner ANY.
type Optional struct{}

// Name implements Rule.
func (Optional) Name() string { return "Optional" }

// Apply implements Rule.
func (Optional) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any {
		return nil, false
	}
	empties := 0
	for _, c := range n.Children {
		if c.IsEmpty() {
			empties++
		}
	}
	// Exactly one ∅ keeps the rule invertible (duplicate ∅ alternatives are
	// DedupAny's job); Unoptional restores exactly one.
	if empties != 1 || len(n.Children) < 2 {
		return nil, false
	}
	// shared: each alternative is used once (see share)
	nonEmpty := slices.DeleteFunc(share(n.Children), (*difftree.Node).IsEmpty)
	// A lone alternative passes through — unless it is itself an ANY, which
	// Unoptional would flatten into the rebuilt ANY; nest it instead so
	// Unoptional(Optional(x)) == x.
	if len(nonEmpty) == 1 && nonEmpty[0].Kind != difftree.Any {
		return difftree.NewOpt(nonEmpty[0]), true
	}
	return difftree.NewOpt(difftree.NewAny(nonEmpty...)), true
}

// Unoptional is the inverse: OPT[z] → ANY[∅, z] (flattening an inner ANY).
type Unoptional struct{}

// Name implements Rule.
func (Unoptional) Name() string { return "Unoptional" }

// Apply implements Rule.
func (Unoptional) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Opt {
		return nil, false
	}
	child := n.Children[0]
	kids := []*difftree.Node{difftree.Emptyn()}
	if child.Kind == difftree.Any {
		kids = append(kids, share(child.Children)...)
	} else {
		kids = append(kids, child)
	}
	return difftree.NewAny(kids...), true
}

// Unwrap removes a trivial ANY wrapper: ANY[x] → x (paper's Noop, forward).
type Unwrap struct{}

// Name implements Rule.
func (Unwrap) Name() string { return "Unwrap" }

// Apply implements Rule.
func (Unwrap) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any || len(n.Children) != 1 {
		return nil, false
	}
	return n.Children[0], true
}

// Wrap adds a trivial ANY wrapper: x → ANY[x] (paper's Noop, backward). It
// refuses to wrap choice nodes or ∅, and — to keep the search fanout in the
// paper's reported range (~50) — only applies to nodes that are themselves
// choice alternatives (children of an ANY).
type Wrap struct{}

// Name implements Rule.
func (Wrap) Name() string { return "Wrap" }

// AllowedUnder bounds Wrap to ANY alternatives.
func (Wrap) AllowedUnder(parent *difftree.Node) bool {
	return parent != nil && parent.Kind == difftree.Any
}

// Apply implements Rule.
func (Wrap) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.All || n.IsEmpty() || n.IsSeq() {
		return nil, false
	}
	return difftree.NewAny(n), true
}

// Flatten splices nested ANY alternatives into their parent:
// ANY[ANY[a b] c] → ANY[a b c].
type Flatten struct{}

// Name implements Rule.
func (Flatten) Name() string { return "Flatten" }

// Apply implements Rule.
func (Flatten) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any {
		return nil, false
	}
	hasNested := false
	for _, c := range n.Children {
		if c.Kind == difftree.Any {
			hasNested = true
			break
		}
	}
	if !hasNested {
		return nil, false
	}
	var kids []*difftree.Node
	for _, c := range n.Children {
		if c.Kind == difftree.Any {
			kids = append(kids, c.Children...)
		} else {
			kids = append(kids, c)
		}
	}
	return difftree.NewAny(dedup(kids)...), true
}

// DedupAny removes structurally duplicate alternatives from an ANY.
type DedupAny struct{}

// Name implements Rule.
func (DedupAny) Name() string { return "DedupAny" }

// Apply implements Rule.
func (DedupAny) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any || !hasDuplicate(n.Children) {
		return nil, false
	}
	return difftree.NewAny(dedup(share(n.Children))...), true
}

// hasDuplicate reports whether two of ns are Equal.
func hasDuplicate(ns []*difftree.Node) bool {
	for i, n := range ns {
		if containsEqual(ns[:i], n) {
			return true
		}
	}
	return false
}
