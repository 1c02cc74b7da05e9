package difftree

import "repro/internal/ast"

// QueryVisits indexes, for one difftree and one query log, the nodes each
// query's first-found derivation (the one Express returns) visits: the root,
// every child of a visited All node, the chosen alternative of a visited
// Any, the child of an Opt taken on, and the child of a Multi with at least
// one instance. Untaken alternatives, Opt-off children and zero-instance
// Multi children are not visited.
//
// The index answers incremental legality: replacing the subtree at node n
// can only break the queries whose derivation visits n. A derivation that
// avoids n leaves the edited spine at a choice node whose chosen children
// are untouched, so every node it reads in the rewritten tree is either
// unchanged or a spine copy with the same kind, label, value and arity.
// Skipping such a query is exact as long as its full re-match would not
// run out of the matcher's backtracking budget (matchBudget, 2^20 steps):
// the failed search that precedes the derivation can change with the edit.
// In 15-iteration searches (seeds 1-3) over the SDSS, SDSS-join, Figure 1
// and two RandomJoinLog logs, the largest derivation took 268 steps and the
// largest full re-match of any query on any candidate 459.
//
// Visits are kept as one query bitset per node, indexed by pre-order
// position (the order of WalkPath), ⌈len(qs)/64⌉ words each. A zero value is
// ready to use; Index reuses its buffers across trees.
type QueryVisits struct {
	words  int
	size   []int32         // subtree size by pre-order position
	pos    map[*Node]int32 // pre-order position by node
	bits   []uint64        // bits[pos*words+j/64] holds query j's visit of pos
	always []uint64        // queries re-matched after every edit
}

// Index records the derivations of qs on root. A query with no derivation
// (unexpressible, or out of backtracking budget) is marked as affected by
// every edit; so is every query when a node pointer occurs at two
// positions, since visits are recorded by node identity.
func (v *QueryVisits) Index(root *Node, qs []*ast.Node) {
	v.words = (len(qs) + 63) / 64
	if v.pos == nil {
		v.pos = make(map[*Node]int32)
	}
	clear(v.pos)
	v.size = v.size[:0]
	shared := false
	var index func(n *Node) int32
	index = func(n *Node) int32 {
		p := int32(len(v.size))
		if _, dup := v.pos[n]; dup {
			shared = true
		}
		v.pos[n] = p
		v.size = append(v.size, 1)
		s := int32(1)
		for _, c := range n.Children {
			s += index(c)
		}
		v.size[p] = s
		return s
	}
	if root != nil {
		index(root)
	}
	v.bits = resetWords(v.bits, len(v.size)*v.words)
	v.always = resetWords(v.always, v.words)

	m := acquireMatcher(true)
	defer releaseMatcher(m)
	for j, q := range qs {
		w, bit := j/64, uint64(1)<<(j%64)
		m.budget = matchBudget
		m.trail = m.trail[:0]
		m.chunk, m.used = 0, 0
		if shared || root == nil || !m.matchQuery(root, q) {
			v.always[w] |= bit
			continue
		}
		v.mark(root, 0, w, bit)
		for _, e := range m.trail {
			if e.alt < 0 {
				continue
			}
			c := e.node.Children[e.alt]
			if p := v.pos[c]; v.bits[int(p)*v.words+w]&bit == 0 {
				v.mark(c, p, w, bit)
			}
		}
	}
}

// mark records a visit of n (at pre-order position p) and of everything the
// derivation reaches from it without a choice: all children of an All node,
// recursively. A node already marked had its closure marked with it.
func (v *QueryVisits) mark(n *Node, p int32, w int, bit uint64) {
	v.bits[int(p)*v.words+w] |= bit
	if n.Kind != All {
		return
	}
	cp := p + 1
	for _, c := range n.Children {
		v.mark(c, cp, w, bit)
		cp += v.size[cp]
	}
}

func resetWords(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Size returns the size of the subtree at pre-order position pos.
func (v *QueryVisits) Size(pos int) int { return int(v.size[pos]) }

// Affected appends to dst, in log order, the queries of qs (the log passed
// to Index) whose expressibility can change when the subtree at pre-order
// position pos is replaced: those whose derivation visits it, plus those
// marked as affected by every edit.
func (v *QueryVisits) Affected(dst []*ast.Node, qs []*ast.Node, pos int) []*ast.Node {
	row := v.bits[pos*v.words : (pos+1)*v.words]
	for j, q := range qs {
		w, bit := j/64, uint64(1)<<(j%64)
		if (row[w]|v.always[w])&bit != 0 {
			dst = append(dst, q)
		}
	}
	return dst
}
