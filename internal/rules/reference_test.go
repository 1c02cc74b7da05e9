package rules

import (
	"repro/internal/ast"
	"repro/internal/difftree"
)

// This file keeps the straightforward rule bodies that the allocation-free
// pre-checks and exact-size builders of Any2All, MultiMerge, GroupAny,
// DedupAny and Optional replaced. They are the reference the differential
// tests (TestRewriteMatchesReference, FuzzRuleRewrite) hold the rules to:
// the same verdict and a structurally equal replacement on every node.

// refRewrite is the reference for Rewrite: it looks the node and its parent
// up by path, honours a parent-aware rule's veto, and applies the reference
// body of a rewritten rule (the rule's own Apply for the others).
func refRewrite(root *difftree.Node, p difftree.Path, r Rule) (*difftree.Node, bool) {
	n := difftree.At(root, p)
	if n == nil {
		return nil, false
	}
	if pa, ok := r.(parentAware); ok {
		var parent *difftree.Node
		if len(p) > 0 {
			parent = difftree.At(root, p[:len(p)-1])
		}
		if !pa.AllowedUnder(parent) {
			return nil, false
		}
	}
	switch r.(type) {
	case Any2All:
		return refAny2All(n)
	case MultiMerge:
		return refMultiMerge(n)
	case GroupAny:
		return refGroupAny(n)
	case DedupAny:
		return refDedupAny(n)
	case Optional:
		return refOptional(n)
	}
	return r.Apply(n)
}

// refDedupNodes is the reference for dedup: it builds a fresh slice of the
// kept nodes instead of compacting its argument.
func refDedupNodes(ns []*difftree.Node) []*difftree.Node {
	var out []*difftree.Node
next:
	for _, n := range ns {
		h := difftree.Hash(n)
		for _, prev := range out {
			if difftree.Hash(prev) == h && difftree.Equal(prev, n) {
				continue next
			}
		}
		out = append(out, n)
	}
	return out
}

func refItoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func refAlignKey(c *difftree.Node) (string, bool) {
	switch c.Kind {
	case difftree.All:
		if c.IsEmpty() || c.IsSeq() {
			return "", false
		}
		return "L" + c.Label.String(), true
	default:
		return "C" + c.Kind.String() + refHashKey(c), true
	}
}

func refHashKey(c *difftree.Node) string {
	h := difftree.Hash(c)
	buf := make([]byte, 16)
	for i := 0; i < 16; i++ {
		buf[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	return string(buf)
}

func refAny2All(n *difftree.Node) (*difftree.Node, bool) {
	label, value, ok := sameAllHead(n)
	if !ok {
		return nil, false
	}
	type slot struct {
		key  string
		node *difftree.Node
	}
	branches := make([][]slot, len(n.Children))
	for bi, b := range n.Children {
		counts := map[string]int{}
		for _, c := range b.Children {
			k, ok := refAlignKey(c)
			if !ok {
				return nil, false
			}
			ord := counts[k]
			counts[k]++
			branches[bi] = append(branches[bi], slot{key: k + "#" + refItoa(ord), node: c})
		}
	}
	var order []string
	seen := map[string]bool{}
	for _, br := range branches {
		for _, s := range br {
			if !seen[s.key] {
				seen[s.key] = true
				order = append(order, s.key)
			}
		}
	}
	if len(order) == 0 {
		return nil, false
	}
	newKids := make([]*difftree.Node, 0, len(order))
	for _, key := range order {
		var variants []*difftree.Node
		missing := false
		for _, br := range branches {
			found := (*difftree.Node)(nil)
			for _, s := range br {
				if s.key == key {
					found = s.node
					break
				}
			}
			if found == nil {
				missing = true
			} else {
				variants = append(variants, found)
			}
		}
		variants = refDedupNodes(variants)
		var kid *difftree.Node
		switch {
		case len(variants) == 1 && !missing:
			kid = variants[0]
		case missing:
			kid = difftree.NewAny(append([]*difftree.Node{difftree.Emptyn()}, variants...)...)
		default:
			kid = difftree.NewAny(variants...)
		}
		newKids = append(newKids, kid)
	}
	out := difftree.NewAll(label, value, newKids...)
	if difftree.Equal(out, n) {
		return nil, false
	}
	return out, true
}

func refElemLabel(c *difftree.Node) (ast.Kind, bool) {
	switch c.Kind {
	case difftree.All:
		if c.IsEmpty() || c.IsSeq() {
			return 0, false
		}
		return c.Label, true
	case difftree.Any:
		var label ast.Kind
		for i, alt := range c.Children {
			l, ok := refElemLabel(alt)
			if !ok {
				return 0, false
			}
			if i == 0 {
				label = l
			} else if l != label {
				return 0, false
			}
		}
		return label, len(c.Children) > 0
	}
	return 0, false
}

func refAlternativesOf(c *difftree.Node) []*difftree.Node {
	if c.Kind == difftree.Any {
		var out []*difftree.Node
		for _, alt := range c.Children {
			out = append(out, refAlternativesOf(alt)...)
		}
		return out
	}
	return []*difftree.Node{c}
}

func refMultiMerge(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind == difftree.Opt || n.Kind == difftree.Multi {
		return nil, false
	}
	if n.Kind == difftree.All && n.IsEmpty() {
		return nil, false
	}
	kids := n.Children
	for start := 0; start < len(kids); start++ {
		label, ok := refElemLabel(kids[start])
		if !ok {
			continue
		}
		end := start + 1
		for end < len(kids) {
			l, ok := refElemLabel(kids[end])
			if !ok || l != label {
				break
			}
			end++
		}
		if end-start < 2 {
			continue
		}
		var alts []*difftree.Node
		for i := start; i < end; i++ {
			alts = append(alts, refAlternativesOf(kids[i])...)
		}
		alts = refDedupNodes(alts)
		var child *difftree.Node
		if len(alts) == 1 {
			child = alts[0]
		} else {
			child = difftree.NewAny(alts...)
		}
		if difftree.Nullable(child) {
			continue
		}
		out := &difftree.Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
		out.Children = append(out.Children, kids[:start]...)
		out.Children = append(out.Children, difftree.NewMulti(child))
		out.Children = append(out.Children, kids[end:]...)
		return out, true
	}
	return nil, false
}

func refGroupKey(c *difftree.Node) (string, bool) {
	if c.Kind != difftree.All || c.IsEmpty() || c.IsSeq() {
		return "", false
	}
	return c.Label.String() + "\x00" + c.Value, true
}

func refGroupAny(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any || len(n.Children) < 3 {
		return nil, false
	}
	type group struct {
		members []*difftree.Node
	}
	var order []string
	groups := make(map[string]*group)
	var singles int
	for _, c := range n.Children {
		k, ok := refGroupKey(c)
		if !ok {
			singles++
			k = "\x01" + refItoa(singles)
		}
		g, seen := groups[k]
		if !seen {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.members = append(g.members, c)
	}
	if len(order) < 2 {
		return nil, false
	}
	grouped := false
	kids := make([]*difftree.Node, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g.members) == 1 {
			kids = append(kids, g.members[0])
			continue
		}
		grouped = true
		kids = append(kids, difftree.NewAny(g.members...))
	}
	if !grouped {
		return nil, false
	}
	return difftree.NewAny(kids...), true
}

func refDedupAny(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any {
		return nil, false
	}
	kids := refDedupNodes(n.Children)
	if len(kids) == len(n.Children) {
		return nil, false
	}
	return difftree.NewAny(share(kids)...), true
}

func refOptional(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.Any {
		return nil, false
	}
	var nonEmpty []*difftree.Node
	empties := 0
	for _, c := range n.Children {
		if c.IsEmpty() {
			empties++
		} else {
			nonEmpty = append(nonEmpty, c)
		}
	}
	if empties != 1 || len(nonEmpty) == 0 {
		return nil, false
	}
	if len(nonEmpty) == 1 && nonEmpty[0].Kind != difftree.Any {
		return difftree.NewOpt(nonEmpty[0]), true
	}
	return difftree.NewOpt(difftree.NewAny(nonEmpty...)), true
}
