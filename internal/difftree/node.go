// Package difftree implements the paper's difftree: a tree whose nodes
// encode the differences and similarities among a set of query ASTs, and
// whose structure doubles as the interface layout skeleton.
//
// A difftree node generates a *sequence* of AST nodes:
//
//   - All(label,value)[c1..cn] generates exactly one AST node whose children
//     are the concatenation of what c1..cn generate. Two special labels:
//     ast.KindEmpty generates the empty sequence (the paper's ∅), and
//     ast.KindSeq splices its children's output into the parent (created by
//     the Lift rule).
//   - Any[c1..cn] generates the output of exactly one chosen child.
//   - Opt[c] generates nothing or c's output.
//   - Multi[c] generates k >= 0 concatenated instances of c's output.
//
// An AST is the special case of a difftree with only All nodes. A query is
// expressed by the set of choices made at Any/Opt/Multi nodes (see match.go).
package difftree

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
)

// Kind is the difftree node type.
type Kind uint8

// The four node types from the paper. Any, Opt, and Multi are the choice
// nodes; All mirrors a grammar AST node.
const (
	All Kind = iota
	Any
	Opt
	Multi
)

// String returns the paper's name for the node type.
func (k Kind) String() string {
	switch k {
	case All:
		return "ALL"
	case Any:
		return "ANY"
	case Opt:
		return "OPT"
	case Multi:
		return "MULTI"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsChoice reports whether the kind is one of the paper's choice node types.
func (k Kind) IsChoice() bool { return k == Any || k == Opt || k == Multi }

// Node is one difftree node. Difftrees are immutable values: once a node is
// reachable from a search state it is never modified, which is what makes
// copy-on-write rule application (ReplaceAt, structural sharing in
// internal/rules) and the cached structural hash below safe. Within one tree
// every node pointer occurs at exactly one position — widget assignment and
// cost attribution key maps by node identity.
type Node struct {
	Kind  Kind
	Label ast.Kind // grammar rule, meaningful when Kind == All
	// valid memoizes that the subtree passed ValidEdit's structural check.
	// It sits in the padding after Label, so a Node stays 64 bytes. Atomic
	// for the same reason as h.
	valid    atomic.Bool
	Value    string // literal/operator value, meaningful when Kind == All
	Children []*Node

	// h memoizes Hash for the subtree; 0 means "not computed yet" (Hash
	// never returns 0). Atomic because immutable subtrees are shared across
	// search states and may be hashed from concurrent workers.
	h atomic.Uint64
	// kc memoizes KindCounts for the subtree, packed kindCountBits per
	// Kind; 0 means "not computed yet" (a subtree has at least one node).
	// Atomic for the same reason as h.
	kc atomic.Uint64
}

// NewAll constructs an All node mirroring a grammar rule.
func NewAll(label ast.Kind, value string, children ...*Node) *Node {
	return &Node{Kind: All, Label: label, Value: value, Children: children}
}

// NewAny constructs a choice among the given alternatives.
func NewAny(children ...*Node) *Node { return &Node{Kind: Any, Children: children} }

// NewOpt constructs an optional wrapper around child.
func NewOpt(child *Node) *Node { return &Node{Kind: Opt, Children: []*Node{child}} }

// NewMulti constructs a zero-or-more repetition of child.
func NewMulti(child *Node) *Node { return &Node{Kind: Multi, Children: []*Node{child}} }

// Emptyn returns a fresh ∅ node (All node with the Empty label).
func Emptyn() *Node { return &Node{Kind: All, Label: ast.KindEmpty} }

// IsEmpty reports whether n is the ∅ marker.
func (n *Node) IsEmpty() bool { return n != nil && n.Kind == All && n.Label == ast.KindEmpty }

// IsSeq reports whether n is a splice marker produced by the Lift rule.
func (n *Node) IsSeq() bool { return n != nil && n.Kind == All && n.Label == ast.KindSeq }

// FromAST converts a grammar AST into the equivalent all-All difftree.
func FromAST(a *ast.Node) *Node {
	if a == nil {
		return nil
	}
	n := &Node{Kind: All, Label: a.Kind, Value: a.Value}
	if len(a.Children) > 0 {
		n.Children = make([]*Node, len(a.Children))
		for i, c := range a.Children {
			n.Children[i] = FromAST(c)
		}
	}
	return n
}

// ToAST converts a choice-free difftree back to a grammar AST. It reports
// false if the subtree contains any choice node. Seq and Empty markers are
// spliced away; a root that is itself Seq/Empty yields false unless it
// resolves to exactly one node.
func ToAST(n *Node) (*ast.Node, bool) {
	seq, ok := toASTSeq(n)
	if !ok || len(seq) != 1 {
		return nil, false
	}
	return seq[0], true
}

func toASTSeq(n *Node) ([]*ast.Node, bool) {
	if n == nil {
		return nil, true
	}
	if n.Kind != All {
		return nil, false
	}
	if n.Label == ast.KindEmpty {
		return nil, true
	}
	var kids []*ast.Node
	for _, c := range n.Children {
		sub, ok := toASTSeq(c)
		if !ok {
			return nil, false
		}
		kids = append(kids, sub...)
	}
	if n.Label == ast.KindSeq {
		return kids, true
	}
	return []*ast.Node{{Kind: n.Label, Value: n.Value, Children: kids}}, true
}

// Clone deep-copies the subtree. The cached structural hash carries over:
// a clone is structurally identical by construction.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	if h := n.h.Load(); h != 0 {
		c.h.Store(h)
	}
	c.kc.Store(n.kc.Load())
	c.valid.Store(n.valid.Load())
	return c
}

// Size counts nodes in the subtree: the sum of its memoized KindCounts, so
// after a copy-on-write edit only the fresh spine is recounted.
func (n *Node) Size() int {
	c := n.KindCounts()
	return c[All] + c[Any] + c[Opt] + c[Multi]
}

// CountChoice counts Any/Opt/Multi nodes in the subtree; the paper uses this
// as the main driver of search fanout.
func (n *Node) CountChoice() int {
	if n == nil {
		return 0
	}
	s := 0
	if n.Kind.IsChoice() {
		s = 1
	}
	for _, c := range n.Children {
		s += c.CountChoice()
	}
	return s
}

// HasChoice reports whether the subtree contains any choice node.
func (n *Node) HasChoice() bool {
	if n == nil {
		return false
	}
	if n.Kind.IsChoice() {
		return true
	}
	for _, c := range n.Children {
		if c.HasChoice() {
			return true
		}
	}
	return false
}

// Equal reports structural equality.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Label != b.Label || a.Value != b.Value || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// nilHash is the hash of a nil subtree, and the substitute for the (2^-64
// unlikely) case where a real subtree hashes to 0 — 0 is reserved as the
// "not computed" sentinel of the per-node cache.
const nilHash uint64 = 0x9ae16a3b2f90404f

// FNV-1a 64-bit parameters (hash/fnv's, inlined so the hot path allocates
// nothing — the stdlib hasher costs one heap object per rehash).
const (
	fnvOffset64 uint64 = 0xcbf29ce484222325
	fnvPrime64  uint64 = 0x100000001b3
)

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint32 folds a uint32 in little-endian byte order.
func fnvUint32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v))
	h = fnvByte(h, byte(v>>8))
	h = fnvByte(h, byte(v>>16))
	return fnvByte(h, byte(v>>24))
}

// fnvUint64 folds a uint64 in little-endian byte order.
func fnvUint64(h uint64, v uint64) uint64 {
	h = fnvUint32(h, uint32(v))
	return fnvUint32(h, uint32(v>>32))
}

// Hash returns a structural hash of the subtree; used to deduplicate search
// states and as the key of the evaluation engine's transposition cache.
//
// The hash is memoized on each node and composes from the children's cached
// hashes, so with copy-on-write move application only the spine from the
// root to the edited path is ever rehashed: unchanged subtrees reuse their
// cached values. Value strings and child lists are length-prefixed, so no
// crafted Value can emulate node boundaries (see TestHashNoDelimiterCollision
// for the ambiguity the previous delimiter-based scheme allowed).
//
// The digest is FNV-1a over the same byte stream as always — header (Kind,
// Label, value length, child count), Value bytes, then each child hash in
// little-endian — inlined allocation-free. Per-state reward RNGs are seeded
// from these values, so the byte stream (and therefore every hash) must stay
// exactly stable; TestHashMatchesStdlibFNV pins the equivalence.
func Hash(n *Node) uint64 {
	if n == nil {
		return nilHash
	}
	if h := n.h.Load(); h != 0 {
		return h
	}
	h := fnvOffset64
	h = fnvByte(h, byte(n.Kind))
	h = fnvByte(h, byte(n.Label))
	h = fnvUint32(h, uint32(len(n.Value)))
	h = fnvUint32(h, uint32(len(n.Children)))
	for i := 0; i < len(n.Value); i++ {
		h = fnvByte(h, n.Value[i])
	}
	for _, c := range n.Children {
		h = fnvUint64(h, Hash(c))
	}
	if h == 0 {
		h = nilHash
	}
	n.h.Store(h)
	return h
}

// kindCountBits is the width of one packed per-kind count in Node.kc.
const kindCountBits = 16

// KindCounts returns the number of nodes of each Kind in the subtree,
// indexed by Kind. Counts are memoized per node and compose from the
// children's, so after a copy-on-write edit only the fresh spine is
// recounted. A subtree with more than 2^kindCountBits-1 nodes of one kind
// is counted exactly but not memoized.
func (n *Node) KindCounts() [4]int {
	var c [4]int
	if n == nil {
		return c
	}
	if v := n.kc.Load(); v != 0 {
		for k := range c {
			c[k] = int(v >> (k * kindCountBits) & (1<<kindCountBits - 1))
		}
		return c
	}
	c[n.Kind]++
	for _, ch := range n.Children {
		cc := ch.KindCounts()
		for k := range c {
			c[k] += cc[k]
		}
	}
	var v uint64
	for k := range c {
		if c[k] >= 1<<kindCountBits {
			return c
		}
		v |= uint64(c[k]) << (k * kindCountBits)
	}
	n.kc.Store(v)
	return c
}

// kindCount returns KindCounts()[k], read from the packed memo without
// unpacking the other kinds.
func (n *Node) kindCount(k Kind) int {
	if v := n.kc.Load(); v != 0 {
		return int(v >> (uint(k) * kindCountBits) & (1<<kindCountBits - 1))
	}
	return n.KindCounts()[k]
}

// NthOfKind finds the j-th node (from 0) of kind k in root's pre-order: the
// node a draw of index j from the pre-order list of kind-k paths would pick,
// found by descending the memoized per-kind subtree counts instead of
// materializing the list. It appends the node's path to buf and returns the
// extended slice, the node, and its parent (nil for the root), so a caller
// that rewrites the node needs no second walk down the path. Passing a
// reused buffer as buf[:0] makes the lookup allocation-free. It panics
// unless 0 <= j < root.KindCounts()[k].
func NthOfKind(root *Node, k Kind, j int, buf Path) (p Path, n, parent *Node) {
	p, n = buf, root
	if j < 0 || j >= n.kindCount(k) {
		panic(fmt.Sprintf("difftree: NthOfKind index %d out of range for %v", j, k))
	}
	for {
		if n.Kind == k {
			if j == 0 {
				return p, n, parent
			}
			j--
		}
		for i, c := range n.Children {
			m := c.kindCount(k)
			if j < m {
				p = append(p, i)
				parent, n = n, c
				break
			}
			j -= m
		}
	}
}

// Nullable reports whether the subtree can generate the empty sequence.
func Nullable(n *Node) bool {
	if n == nil {
		return true
	}
	switch n.Kind {
	case All:
		if n.Label == ast.KindEmpty {
			return true
		}
		if n.Label == ast.KindSeq {
			for _, c := range n.Children {
				if !Nullable(c) {
					return false
				}
			}
			return true
		}
		return false // generates exactly one node
	case Any:
		for _, c := range n.Children {
			if Nullable(c) {
				return true
			}
		}
		return false
	case Opt, Multi:
		return true
	}
	return false
}

// Path addresses a node by child indexes from the root.
type Path []int

// Clone copies the path.
func (p Path) Clone() Path {
	c := make(Path, len(p))
	copy(c, p)
	return c
}

func (p Path) String() string {
	if len(p) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, i := range p {
		fmt.Fprintf(&b, "/%d", i)
	}
	return b.String()
}

// At returns the node at path p, or nil if p leaves the tree.
func At(root *Node, p Path) *Node {
	n := root
	for _, i := range p {
		if n == nil || i < 0 || i >= len(n.Children) {
			return nil
		}
		n = n.Children[i]
	}
	return n
}

// WalkPath visits every node with its path in pre-order; returning false
// from fn prunes the node's subtree. The Path handed to fn shares one
// backing buffer across the whole walk and is valid only for the duration
// of the call: callers that retain it must Clone.
func WalkPath(root *Node, fn func(*Node, Path) bool) {
	var buf [16]int
	p := Path(buf[:0])
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil || !fn(n, p) {
			return
		}
		for i, c := range n.Children {
			p = append(p, i)
			rec(c)
			p = p[:len(p)-1]
		}
	}
	rec(root)
}

// ChoicePaths returns the paths of all choice nodes in pre-order.
func ChoicePaths(root *Node) []Path {
	var out []Path
	WalkPath(root, func(n *Node, p Path) bool {
		if n.Kind.IsChoice() {
			out = append(out, p.Clone())
		}
		return true
	})
	return out
}

// String renders the difftree in the paper's notation, e.g.
// ANY[ALL(Select)[...] ...]; for debugging and tests.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	switch n.Kind {
	case All:
		b.WriteString(n.Label.String())
		if n.Value != "" {
			b.WriteByte(':')
			b.WriteString(n.Value)
		}
	default:
		b.WriteString(n.Kind.String())
	}
	if len(n.Children) > 0 {
		b.WriteByte('[')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.write(b)
		}
		b.WriteByte(']')
	}
}
