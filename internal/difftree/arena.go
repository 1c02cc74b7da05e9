package difftree

// SpineArena bump-allocates the copy-on-write spine (fresh nodes plus their
// child slices) built by its ReplaceAt. Move enumeration and rollout sampling
// build many candidate trees that fail a legality check and are immediately
// discarded; allocating their spines from a reusable arena removes that
// garbage from the search hot path.
//
// Contract: trees built by (*SpineArena).ReplaceAt are valid only until the
// next Reset. A candidate that is *kept* as a search state must be rebuilt on
// the heap (difftree.ReplaceAt or rules.Candidate) — arena nodes are reused
// in place, so retaining one would alias a future candidate. The untouched
// subtrees hanging off the spine are the caller's heap nodes and are safe to
// share as always.
type SpineArena struct {
	nodes [][]Node
	nc    int // index of the node chunk being filled
	nu    int // nodes used in nodes[nc]
	kids  [][]*Node
	kc    int // index of the child-slice chunk being filled
	ku    int // pointers used in kids[kc]
}

const (
	spineNodeChunk = 256
	spineKidChunk  = 2048
)

// Reset recycles every node and child slice handed out since the last Reset.
// Trees previously returned by ReplaceAt become invalid.
func (a *SpineArena) Reset() {
	a.nc, a.nu = 0, 0
	a.kc, a.ku = 0, 0
}

func (a *SpineArena) node() *Node {
	for a.nc < len(a.nodes) && a.nu == len(a.nodes[a.nc]) {
		a.nc++
		a.nu = 0
	}
	if a.nc == len(a.nodes) {
		a.nodes = append(a.nodes, make([]Node, spineNodeChunk))
		a.nu = 0
	}
	n := &a.nodes[a.nc][a.nu]
	a.nu++
	return n
}

func (a *SpineArena) childSlice(n int) []*Node {
	if n == 0 {
		return nil
	}
	if n > spineKidChunk {
		return make([]*Node, n) // oversized fanout: fall back to the heap
	}
	for a.kc < len(a.kids) && a.ku+n > len(a.kids[a.kc]) {
		a.kc++
		a.ku = 0
	}
	if a.kc == len(a.kids) {
		a.kids = append(a.kids, make([]*Node, spineKidChunk))
		a.ku = 0
	}
	s := a.kids[a.kc][a.ku : a.ku+n : a.ku+n]
	a.ku += n
	return s
}

// ReplaceAt is ReplaceAt with the spine allocated from the arena. It returns
// nil when p is invalid. See the type comment for the lifetime contract.
func (a *SpineArena) ReplaceAt(root *Node, p Path, repl *Node) *Node {
	if len(p) == 0 {
		return repl
	}
	if root == nil || p[0] < 0 || p[0] >= len(root.Children) {
		return nil
	}
	sub := a.ReplaceAt(root.Children[p[0]], p[1:], repl)
	if sub == nil {
		return nil
	}
	out := a.node()
	out.Kind, out.Label, out.Value = root.Kind, root.Label, root.Value
	out.h.Store(0)
	out.kc.Store(0)
	out.valid.Store(false)
	out.Children = a.childSlice(len(root.Children))
	copy(out.Children, root.Children)
	out.Children[p[0]] = sub
	return out
}
