package rules

import (
	"repro/internal/ast"
	"repro/internal/difftree"
)

// MultiMerge replaces a run of two or more consecutive siblings that denote
// the same grammar rule with a single MULTI node whose child expresses all
// of them (paper: ANY[ALL[x x x x], ALL[x x]] → ALL[MULTI[x]]; e.g. merging
// repeated predicates so the interface gains an "adder" widget). The rule is
// the only non-bidirectional rule in the paper.
type MultiMerge struct{}

// Name implements Rule.
func (MultiMerge) Name() string { return "MultiMerge" }

// elemLabel returns the grammar rule a sibling denotes, looking through ANY
// alternatives, and the number of concrete alternatives it holds; ok is
// false for nodes that cannot participate in a run (Seq, Empty, Opt, Multi,
// or mixed-label Any).
func elemLabel(c *difftree.Node) (label ast.Kind, alts int, ok bool) {
	switch c.Kind {
	case difftree.All:
		return c.Label, 1, !c.IsEmpty() && !c.IsSeq()
	case difftree.Any:
		for i, alt := range c.Children {
			l, k, ok := elemLabel(alt)
			if !ok || (i > 0 && l != label) {
				return 0, 0, false
			}
			label, alts = l, alts+k
		}
		return label, alts, len(c.Children) > 0
	}
	return 0, 0, false
}

// appendAlternatives appends a run element's concrete alternatives to dst.
func appendAlternatives(dst []*difftree.Node, c *difftree.Node) []*difftree.Node {
	if c.Kind != difftree.Any {
		return append(dst, c)
	}
	for _, alt := range c.Children {
		dst = appendAlternatives(dst, alt)
	}
	return dst
}

// Apply implements Rule. It merges the first maximal run of length >= 2
// found among n's children (one run per move keeps fanout proportional to
// the number of runs, and repeated application handles the rest).
func (MultiMerge) Apply(n *difftree.Node) (*difftree.Node, bool) {
	start, end, alts, ok := firstRun(n, nil)
	if !ok {
		return nil, false
	}
	child := alts[0]
	if len(alts) > 1 {
		child = difftree.NewAny(alts...)
	}
	kids := n.Children
	out := &difftree.Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
	out.Children = make([]*difftree.Node, 0, len(kids)-(end-start)+1)
	out.Children = append(out.Children, kids[:start]...)
	out.Children = append(out.Children, difftree.NewMulti(child))
	out.Children = append(out.Children, kids[end:]...)
	return out, true
}

// Shape reports, without building it, what a widening verdict reads of
// the replacement Apply(n) returns: its size and nullability, with Apply's
// ok. Applied to a node of a valid tree, Apply's replacement is valid, and
// MultiMerge has no parent veto, so these are all a verdict needs. The
// size is n's minus the run's plus the MULTI and its child; the
// replacement is nullable exactly when n's kind makes a nullable MULTI
// child so (an ANY always, a Seq when its other children are). The run's
// alternatives are deduplicated in a stack buffer; nothing is built.
func (MultiMerge) Shape(n *difftree.Node) (size int, nullable, ok bool) {
	var buf [16]*difftree.Node
	start, end, alts, ok := firstRun(n, buf[:0])
	if !ok {
		return 0, false, false
	}
	kids := n.Children
	size = n.Size() + 1 // the MULTI
	for _, c := range kids[start:end] {
		size -= c.Size()
	}
	if len(alts) > 1 {
		size++ // the ANY
	}
	for _, alt := range alts {
		size += alt.Size()
	}
	switch {
	case n.Kind == difftree.Any:
		nullable = true
	case n.IsSeq():
		nullable = true
		for i, c := range kids {
			if (i < start || i >= end) && !difftree.Nullable(c) {
				nullable = false
				break
			}
		}
	}
	return size, nullable, true
}

// firstRun finds the run Apply merges: the first maximal run of two or
// more consecutive children of n denoting one grammar rule whose merged
// child is not nullable. It returns the run's bounds and its deduplicated
// alternatives, appended to the empty slice buf (Shape's stack buffer); a
// nil buf allocates them exactly sized, for Apply to keep.
func firstRun(n *difftree.Node, buf []*difftree.Node) (start, end int, alts []*difftree.Node, ok bool) {
	if n.Kind == difftree.Opt || n.Kind == difftree.Multi {
		return 0, 0, nil, false
	}
	if n.Kind == difftree.All && n.IsEmpty() {
		return 0, 0, nil, false
	}
	kids := n.Children
	for start = 0; start < len(kids); start++ {
		label, size, ok := elemLabel(kids[start])
		if !ok {
			continue
		}
		end = start + 1
		for end < len(kids) {
			l, k, ok := elemLabel(kids[end])
			if !ok || l != label {
				break
			}
			size += k
			end++
		}
		if end-start < 2 {
			continue
		}
		alts = buf
		if buf == nil {
			alts = make([]*difftree.Node, 0, size)
		}
		for _, c := range kids[start:end] {
			alts = appendAlternatives(alts, c)
		}
		alts = dedup(alts)
		if anyNullable(alts) {
			continue // the merged child would break the MULTI invariant
		}
		return start, end, alts, true
	}
	return 0, 0, nil, false
}

// anyNullable reports whether one of ns is nullable: whether the merged
// child over the alternatives ns would be.
func anyNullable(ns []*difftree.Node) bool {
	for _, n := range ns {
		if difftree.Nullable(n) {
			return true
		}
	}
	return false
}
