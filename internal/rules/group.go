package rules

import (
	"slices"

	"repro/internal/difftree"
)

// GroupAny partitions a heterogeneous ANY by the root (Label, Value) head of
// its alternatives, nesting every multi-member head group in an inner ANY:
//
//	ANY[ Select.. Select.. Union.. Union.. ] →
//	ANY[ ANY[Select.. Select..] ANY[Union.. Union..] ]
//
// ANY is associative, so the generated language is unchanged; what changes
// is that Any2All and Lift — whose pattern requires one shared head — can
// now factor the homogeneous inner groups. This is what opens the search
// space for logs that mix query shapes (multi-table logs mixing plain
// SELECTs with UNION chains, or INNER with LEFT join steps). Flatten is the
// inverse. The rule never matches a single-head ANY (grouping it would be a
// no-op wrap), so single-shape logs see no new moves.
type GroupAny struct{}

// Name implements Rule.
func (GroupAny) Name() string { return "GroupAny" }

// groupable reports whether c buckets with the other alternatives of its
// (Label, Value) head; non-All children (choices, Seq, ∅) are never grouped
// and bucket alone.
func groupable(c *difftree.Node) bool {
	return c.Kind == difftree.All && !c.IsEmpty() && !c.IsSeq()
}

// sameGroup reports whether alternatives a and b share a bucket.
func sameGroup(a, b *difftree.Node) bool {
	return groupable(a) && groupable(b) && a.Label == b.Label && a.Value == b.Value
}

// Apply implements Rule.
func (GroupAny) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any || len(n.Children) < 3 {
		return nil, false
	}
	kids := n.Children
	// Grouping is only a move when it changes the shape: at least two
	// buckets (a single head is Any2All/Lift territory already) and at
	// least one bucket with two or more members. A scan of the pairs
	// decides both before anything is allocated.
	repeated, mixed := false, false
	for i, c := range kids {
		for _, prev := range kids[:i] {
			if sameGroup(prev, c) {
				repeated = true
			} else {
				mixed = true
			}
		}
	}
	if !repeated || !mixed {
		return nil, false
	}
	// Buckets in order of first appearance; each child lands once.
	out := make([]*difftree.Node, 0, len(kids))
	for i, c := range kids {
		if slices.ContainsFunc(kids[:i], func(o *difftree.Node) bool { return sameGroup(o, c) }) {
			continue // c's bucket is already out
		}
		var g []*difftree.Node
		for _, o := range kids[i:] {
			if sameGroup(c, o) {
				g = append(g, o) // shared: each child lands once
			}
		}
		if len(g) < 2 {
			out = append(out, c)
		} else {
			out = append(out, difftree.NewAny(g...))
		}
	}
	return difftree.NewAny(out...), true
}
