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
	if n.Kind == difftree.Opt || n.Kind == difftree.Multi {
		return nil, false
	}
	if n.Kind == difftree.All && n.IsEmpty() {
		return nil, false
	}
	kids := n.Children
	for start := 0; start < len(kids); start++ {
		label, size, ok := elemLabel(kids[start])
		if !ok {
			continue
		}
		end := start + 1
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
		alts := make([]*difftree.Node, 0, size)
		for _, c := range kids[start:end] {
			alts = appendAlternatives(alts, c)
		}
		alts = dedup(alts)
		var child *difftree.Node
		if len(alts) == 1 {
			child = alts[0]
		} else {
			child = difftree.NewAny(alts...)
		}
		if difftree.Nullable(child) {
			continue // would break the MULTI invariant
		}
		out := &difftree.Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
		out.Children = make([]*difftree.Node, 0, len(kids)-(end-start)+1)
		out.Children = append(out.Children, kids[:start]...)
		out.Children = append(out.Children, difftree.NewMulti(child))
		out.Children = append(out.Children, kids[end:]...)
		return out, true
	}
	return nil, false
}
