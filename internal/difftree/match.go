package difftree

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// Assignment records, for each choice node, the canonical description of the
// choices made to express one query. Two queries "use the same widget value"
// exactly when their assignments agree on that widget's choice node. A node
// visited several times (inside a Multi) accumulates one entry per instance.
type Assignment map[*Node]string

// Changed returns the choice nodes whose assignment differs between a and b,
// including nodes present in only one of them. The result is an unordered
// set: callers that depend on order must sort it themselves (cost.NewEvaluator
// sorts by pre-order position before deriving any cost term).
func (a Assignment) Changed(b Assignment) []*Node {
	var out []*Node
	//mctsvet:allow detmap -- unordered-set result by contract; the cost evaluator sorts by pre-order position before any order-dependent use
	for n, v := range a {
		if bv, ok := b[n]; !ok || bv != v {
			out = append(out, n)
		}
	}
	//mctsvet:allow detmap -- unordered-set result by contract; the cost evaluator sorts by pre-order position before any order-dependent use
	for n := range b {
		if _, ok := a[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// matchBudget bounds backtracking work per Express call; exhausted budgets
// report inexpressibility, which is conservative (the move filter will simply
// reject the state).
const matchBudget = 1 << 20

// Expressible reports whether the difftree can generate the query. Unlike
// Express it records no trail and builds no assignment, so the common
// legality-check path allocates nothing after the matcher pool warms up.
func Expressible(root *Node, q *ast.Node) bool {
	m := acquireMatcher(false)
	ok := m.matchQuery(root, q, 0)
	releaseMatcher(m)
	return ok
}

// ExpressibleAll reports whether every query is expressible. One pooled
// matcher (and its cons-cell arena) is reused across all queries; the
// backtracking budget is per query, matching repeated Expressible calls.
func ExpressibleAll(root *Node, qs []*ast.Node) bool {
	return expressibleAll(root, qs, nil)
}

func expressibleAll(root *Node, qs []*ast.Node, memo *MatchMemo) bool {
	m := acquireMatcher(false)
	m.memo = memo
	defer releaseMatcher(m)
	for i, q := range qs {
		m.budget = matchBudget
		m.chunk, m.used = 0, 0
		id := 0
		if memo != nil {
			id = int(memo.roots[i])
		}
		if !m.matchQuery(root, q, id) {
			return false
		}
	}
	return true
}

// memoSlots is the fixed size of a MatchMemo's table: a power of two, so
// a key's low bits index its slot.
const memoSlots = 1 << 14

// MatchMemo memoizes the matcher's context-free All-node step for one
// fixed query log: whether an All node's children generate exactly an AST
// node's children. The verdict depends only on the difftree subtree and
// the AST subtree, so it is keyed by the difftree subtree's structural hash
// and the AST subtree's class: structurally equal AST subtrees of the log
// share one class. A copy-on-write edit keeps every subtree off its spine,
// so re-matching a candidate repeats almost every step made on the state
// it was built from, and the memo answers those steps instead.
//
// Only ExpressibleAll consults it: Express records a trail of choices,
// which a memoized step would skip. A verdict is stored only when its
// sub-match finished within matchBudget, so every stored verdict is the
// exact one. A memoized step consumes no budget, so a memoized match can
// succeed where the unmemoized one exhausts the budget and reports
// inexpressible; everywhere else the two agree.
//
// The table is direct-mapped, of fixed size, with each slot one atomic
// word holding the key's high bits and the verdict; a colliding store
// overwrites. It is safe for concurrent use.
type MatchMemo struct {
	log   []*ast.Node
	roots []int32 // pre-order number of each query's root
	sizes []int32 // AST subtree size per pre-order number
	class []int32 // AST subtree class per pre-order number
	slots [memoSlots]atomic.Uint64
}

// NewMatchMemo returns an empty memo for matching log. The AST nodes of
// log are numbered in pre-order across the queries, so the matcher tracks
// the number of the node it is at and reads its class from a slice; the
// classes number the log's structurally distinct subtrees.
func NewMatchMemo(log []*ast.Node) *MatchMemo {
	mm := &MatchMemo{log: log, roots: make([]int32, len(log))}
	var firsts []*ast.Node             // by class
	classes := map[uint64][]int32{}    // ast.Hash -> classes with that hash
	var number func(a *ast.Node) int32 // returns a's subtree size
	number = func(a *ast.Node) int32 {
		id := len(mm.sizes)
		mm.sizes = append(mm.sizes, 0)
		mm.class = append(mm.class, 0)
		size := int32(1)
		for _, c := range a.Children {
			size += number(c)
		}
		mm.sizes[id] = size
		h := ast.Hash(a)
		class := int32(-1)
		for _, c := range classes[h] {
			if ast.Equal(firsts[c], a) {
				class = c
				break
			}
		}
		if class < 0 {
			class = int32(len(firsts))
			firsts = append(firsts, a)
			classes[h] = append(classes[h], class)
		}
		mm.class[id] = class
		return size
	}
	for i, q := range log {
		mm.roots[i] = int32(len(mm.sizes))
		number(q)
	}
	return mm
}

// ExpressibleAll is ExpressibleAll(root, log) for the memo's log, with
// the All-node step memoized; see MatchMemo for where the two can differ.
func (mm *MatchMemo) ExpressibleAll(root *Node) bool {
	return expressibleAll(root, mm.log, mm)
}

// key digests a difftree subtree hash and the class of the AST node
// numbered id.
func (mm *MatchMemo) key(h uint64, id int) uint64 {
	x := h ^ uint64(mm.class[id]+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// A slot holds the key's bits above the index, then the verdict in bit 1
// and a set flag in bit 0; 0 is an empty slot.
const memoTagMask = ^uint64(memoSlots - 1)

func (mm *MatchMemo) lookup(key uint64) (verdict, ok bool) {
	w := mm.slots[key&(memoSlots-1)].Load()
	if w&1 == 0 || w&memoTagMask != key&memoTagMask {
		return false, false
	}
	return w&2 != 0, true
}

func (mm *MatchMemo) store(key uint64, verdict bool) {
	w := key&memoTagMask | 1
	if verdict {
		w |= 2
	}
	mm.slots[key&(memoSlots-1)].Store(w)
}

// Express finds choice assignments under which the difftree generates q.
// The witness is deterministic (first found in a fixed alternative order).
func Express(root *Node, q *ast.Node) (Assignment, bool) {
	m := acquireMatcher(true)
	if !m.matchQuery(root, q, 0) {
		releaseMatcher(m)
		return nil, false
	}
	asg := make(Assignment, len(m.trail))
	for _, e := range m.trail {
		choice := e.label()
		if prev, ok := asg[e.node]; ok {
			asg[e.node] = prev + "|" + choice
		} else {
			asg[e.node] = choice
		}
	}
	releaseMatcher(m)
	return asg, true
}

// trailEvent is one choice made at a choice node: the index of the child
// the derivation entered, or -1 for an Opt left off or a Multi's closing
// zero.
type trailEvent struct {
	node *Node
	alt  int
}

// label renders the choice in Assignment notation: the alternative index
// for Any, on/off for Opt, and +/0 (one more instance / no more) for Multi.
func (e trailEvent) label() string {
	switch e.node.Kind {
	case Opt:
		if e.alt < 0 {
			return "off"
		}
		return "on"
	case Multi:
		if e.alt < 0 {
			return "0"
		}
		return "+"
	}
	return choiceLabels.get(e.alt)
}

type matcher struct {
	trail     []trailEvent
	budget    int
	needTrail bool
	qbuf      [1]*ast.Node
	memo      *MatchMemo // nil: no memo, and AST node numbers are not tracked

	// Cons-cell arena: dlist cells live only for the duration of one match
	// (match returns bool; nothing downstream holds a cell), so they are
	// bump-allocated from reusable chunks instead of the heap.
	chunks [][]dlist
	chunk  int // index of the chunk being filled
	used   int // cells used in chunks[chunk]
}

const dlistChunkSize = 512

var matcherPool = sync.Pool{New: func() any { return &matcher{} }}

func acquireMatcher(needTrail bool) *matcher {
	m := matcherPool.Get().(*matcher)
	m.budget = matchBudget
	m.needTrail = needTrail
	m.trail = m.trail[:0]
	m.chunk, m.used = 0, 0
	return m
}

func releaseMatcher(m *matcher) {
	m.qbuf[0] = nil
	m.memo = nil
	matcherPool.Put(m)
}

// matchQuery matches root against q, the AST node numbered id in the
// memo's log (0 without a memo).
func (m *matcher) matchQuery(root *Node, q *ast.Node, id int) bool {
	m.qbuf[0] = q
	return m.match(m.cons(root, nil), m.qbuf[:1], id)
}

func (m *matcher) mark() int     { return len(m.trail) }
func (m *matcher) undo(mark int) { m.trail = m.trail[:mark] }
func (m *matcher) record(n *Node, alt int) {
	if !m.needTrail {
		return
	}
	m.trail = append(m.trail, trailEvent{n, alt})
}

// dlist is an immutable cons list of pending difftree nodes; sharing tails
// across backtracking alternatives avoids the slice copies that would
// otherwise dominate matching time.
type dlist struct {
	head *Node
	tail *dlist
}

// cons bump-allocates a cell from the matcher's arena. Cells abandoned by
// backtracking are not reclaimed within a match (the budget bounds the
// total); the whole arena is recycled when the matcher is released.
func (m *matcher) cons(head *Node, tail *dlist) *dlist {
	for m.chunk < len(m.chunks) && m.used == len(m.chunks[m.chunk]) {
		m.chunk++
		m.used = 0
	}
	if m.chunk == len(m.chunks) {
		m.chunks = append(m.chunks, make([]dlist, dlistChunkSize))
		m.used = 0
	}
	c := &m.chunks[m.chunk][m.used]
	m.used++
	c.head = head
	c.tail = tail
	return c
}

// consChildren pushes children onto rest, preserving order.
func (m *matcher) consChildren(children []*Node, rest *dlist) *dlist {
	out := rest
	for i := len(children) - 1; i >= 0; i-- {
		out = m.cons(children[i], out)
	}
	return out
}

// match reports whether the pending difftree node list can generate exactly
// the AST node sequence as. It backtracks across Any/Opt/Multi alternatives
// and records choices on the trail. With a memo, id numbers as[0] in the
// memo's log.
func (m *matcher) match(ds *dlist, as []*ast.Node, id int) bool {
	if m.budget <= 0 {
		return false
	}
	m.budget--

	if ds == nil {
		return len(as) == 0
	}
	d := ds.head
	rest := ds.tail
	if d == nil {
		return m.match(rest, as, id)
	}

	switch d.Kind {
	case All:
		switch d.Label {
		case ast.KindEmpty:
			return m.match(rest, as, id)
		case ast.KindSeq:
			return m.match(m.consChildren(d.Children, rest), as, id)
		default:
			if len(as) == 0 {
				return false
			}
			a := as[0]
			if a.Kind != d.Label || a.Value != d.Value {
				return false
			}
			mk := m.mark()
			if !m.matchChildren(d, a, id) {
				m.undo(mk)
				return false
			}
			next := 0
			if m.memo != nil {
				next = id + int(m.memo.sizes[id])
			}
			if !m.match(rest, as[1:], next) {
				m.undo(mk)
				return false
			}
			return true
		}

	case Any:
		for i, c := range d.Children {
			if !headCanMatch(c, as) {
				continue
			}
			mk := m.mark()
			m.record(d, i)
			if m.match(m.cons(c, rest), as, id) {
				return true
			}
			m.undo(mk)
		}
		return false

	case Opt:
		// Try taking the child first (maximal munch), then skipping.
		mk := m.mark()
		if headCanMatch(d.Children[0], as) {
			m.record(d, 0)
			if m.match(m.cons(d.Children[0], rest), as, id) {
				return true
			}
			m.undo(mk)
		}
		m.record(d, -1)
		if m.match(rest, as, id) {
			return true
		}
		m.undo(mk)
		return false

	case Multi:
		// Take instances greedily; each instance must consume at least one
		// AST node (Multi children are validated non-nullable), so the
		// recursion terminates.
		mk := m.mark()
		if headCanMatch(d.Children[0], as) {
			m.record(d, 0)
			if m.match(m.cons(d.Children[0], m.cons(d, rest)), as, id) {
				return true
			}
			m.undo(mk)
		}
		m.record(d, -1)
		if m.match(rest, as, id) {
			return true
		}
		m.undo(mk)
		return false
	}
	return false
}

// matchChildren is match's context-free All-node step: whether d's
// children generate exactly a's, a being numbered id. With a memo, a
// verdict found within the budget is stored and a stored one is returned
// without matching; a childless d is matched directly, which costs less
// than a lookup.
func (m *matcher) matchChildren(d *Node, a *ast.Node, id int) bool {
	if m.memo == nil || len(d.Children) == 0 {
		return m.match(m.consChildren(d.Children, nil), a.Children, id+1)
	}
	key := m.memo.key(Hash(d), id)
	if v, ok := m.memo.lookup(key); ok {
		return v
	}
	v := m.match(m.consChildren(d.Children, nil), a.Children, id+1)
	if m.budget > 0 {
		m.memo.store(key, v)
	}
	return v
}

// headCanMatch is a cheap pruning check: a plain All node can only start
// matching when the next AST node agrees on kind and value. Choice nodes,
// Seq, and ∅ are never pruned here.
func headCanMatch(d *Node, as []*ast.Node) bool {
	if d.Kind != All || d.Label == ast.KindEmpty || d.Label == ast.KindSeq {
		return true
	}
	return len(as) > 0 && as[0].Kind == d.Label && as[0].Value == d.Value
}

// choiceLabels interns the decimal strings for small child indexes so the
// hot matching loop does not format integers.
var choiceLabels = func() *labelCache {
	c := &labelCache{}
	for i := range c.small {
		c.small[i] = fmt.Sprintf("%d", i)
	}
	return c
}()

type labelCache struct {
	small [64]string
}

func (c *labelCache) get(i int) string {
	if i >= 0 && i < len(c.small) {
		return c.small[i]
	}
	return fmt.Sprintf("%d", i)
}

// DescribeAssignment renders an assignment deterministically for tests and
// debugging: one "path=value" per line sorted by choice node identity string.
func DescribeAssignment(root *Node, a Assignment) string {
	type entry struct {
		path  string
		value string
	}
	var entries []entry
	WalkPath(root, func(n *Node, p Path) bool {
		if v, ok := a[n]; ok {
			entries = append(entries, entry{p.String(), v})
		}
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].path < entries[j].path })
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s=%s\n", e.path, e.value)
	}
	return b.String()
}
