package rules

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/difftree"
)

// Any2All is the paper's main factoring rule: an ANY whose children are ALL
// nodes with the same root and alignable child sequences becomes a single
// ALL whose children are per-position choices. Aligned positions that agree
// in every branch collapse to a plain node; positions with variants become
// ANY nodes; positions missing from some branch gain an ∅ alternative
// (which the Optional rule can then turn into OPT).
type Any2All struct{}

// Name implements Rule.
func (Any2All) Name() string { return "Any2All" }

// alignKey identifies which grandchildren align across branches: plain All
// children align by grammar label; choice children align only with
// structurally identical choice nodes (same kind and hash). ord numbers the
// repeats of one key within a branch, so four BETWEEN conjuncts align
// positionally.
type alignKey struct {
	kind  difftree.Kind
	label ast.Kind
	hash  uint64
	ord   int
}

// Apply implements Rule.
func (Any2All) Apply(n *difftree.Node) (*difftree.Node, bool) {
	label, value, ok := sameAllHead(n)
	if !ok {
		return nil, false
	}

	// Every branch's (key, node) slots in one slice: branch bi's are
	// slots[ends[bi-1]:ends[bi]].
	type slot struct {
		key  alignKey
		node *difftree.Node
	}
	total := 0
	for _, b := range n.Children {
		total += len(b.Children)
	}
	slots := make([]slot, 0, total)
	ends := make([]int, len(n.Children))
	for bi, b := range n.Children {
		first := len(slots)
		for _, c := range b.Children {
			k := alignKey{kind: c.Kind}
			switch {
			case c.Kind != difftree.All:
				k.hash = difftree.Hash(c)
			case c.IsEmpty() || c.IsSeq():
				return nil, false // Seq children: not alignable
			default:
				k.label = c.Label
			}
			for _, s := range slots[first:] {
				if s.key.kind == k.kind && s.key.label == k.label && s.key.hash == k.hash {
					k.ord++
				}
			}
			slots = append(slots, slot{key: k, node: c})
		}
		ends[bi] = len(slots)
	}

	// Position order: first appearance scanning branches in order.
	var order []alignKey
	for _, s := range slots {
		if !slices.Contains(order, s.key) {
			order = append(order, s.key)
		}
	}

	if len(order) == 0 {
		return nil, false // all branches empty: nothing to factor
	}

	// Collect variants per position, after a slot reserved for the ∅
	// alternative of a position missing from some branch.
	newKids := make([]*difftree.Node, 0, len(order))
	for _, key := range order {
		alts := make([]*difftree.Node, 1, 1+len(n.Children))
		missing := false
		first := 0
		for _, end := range ends {
			found := false
			for _, s := range slots[first:end] {
				if s.key == key {
					alts = append(alts, s.node) // shared: one (branch, slot) each
					found = true
					break
				}
			}
			missing = missing || !found
			first = end
		}
		variants := dedup(alts[1:])
		var kid *difftree.Node
		switch {
		case len(variants) == 1 && !missing:
			kid = variants[0]
		case missing:
			alts[0] = difftree.Emptyn()
			kid = difftree.NewAny(alts[:1+len(variants)]...)
		default:
			kid = difftree.NewAny(variants...)
		}
		newKids = append(newKids, kid)
	}

	out := difftree.NewAll(label, value, newKids...)
	// A no-op rewrite (e.g. identical branches) is not a move.
	if difftree.Equal(out, n) {
		return nil, false
	}
	return out, true
}

// All2Any is the inverse direction: an ALL node whose direct ANY children
// all have the same alternative count k expands back into an ANY of k ALL
// combinations, pairing alternatives positionally. (The expressibility
// filter in Moves rejects pairings that lose input queries.)
type All2Any struct{}

// Name implements Rule.
func (All2Any) Name() string { return "All2Any" }

// maxExpandBranches bounds the number of combinations All2Any may emit.
const maxExpandBranches = 12

// Apply implements Rule.
func (All2Any) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if n.Kind != difftree.All || n.IsEmpty() || n.Label == ast.KindSeq {
		return nil, false
	}
	k := 0
	hasAny := false
	for _, c := range n.Children {
		if c.Kind == difftree.Any {
			hasAny = true
			if k == 0 {
				k = len(c.Children)
			} else if k != len(c.Children) {
				return nil, false
			}
		}
	}
	if !hasAny || k < 2 || k > maxExpandBranches {
		return nil, false
	}
	branches := make([]*difftree.Node, k)
	for i := 0; i < k; i++ {
		kids := make([]*difftree.Node, 0, len(n.Children))
		for _, c := range n.Children {
			if c.Kind == difftree.Any {
				alt := c.Children[i]
				if alt.IsEmpty() {
					continue // ∅ alternative: clause absent in this branch
				}
				kids = append(kids, alt) // shared: alternative i goes to branch i only
			} else {
				// Deep-cloned on purpose: the same source child is emitted
				// into every branch, and node pointers must stay unique
				// within one tree.
				kids = append(kids, c.Clone())
			}
		}
		branches[i] = difftree.NewAll(n.Label, n.Value, kids...)
	}
	branches = dedup(branches)
	if len(branches) == 1 {
		return branches[0], true
	}
	return difftree.NewAny(branches...), true
}
