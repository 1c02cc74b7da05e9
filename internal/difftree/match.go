package difftree

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
	ok := m.matchQuery(root, q)
	releaseMatcher(m)
	return ok
}

// ExpressibleAll reports whether every query is expressible. One pooled
// matcher (and its cons-cell arena) is reused across all queries; the
// backtracking budget is per query, matching repeated Expressible calls.
func ExpressibleAll(root *Node, qs []*ast.Node) bool {
	m := acquireMatcher(false)
	defer releaseMatcher(m)
	for _, q := range qs {
		m.budget = matchBudget
		m.chunk, m.used = 0, 0
		if !m.matchQuery(root, q) {
			return false
		}
	}
	return true
}

// Express finds choice assignments under which the difftree generates q.
// The witness is deterministic (first found in a fixed alternative order).
func Express(root *Node, q *ast.Node) (Assignment, bool) {
	m := acquireMatcher(true)
	if !m.matchQuery(root, q) {
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
	matcherPool.Put(m)
}

func (m *matcher) matchQuery(root *Node, q *ast.Node) bool {
	m.qbuf[0] = q
	return m.match(m.cons(root, nil), m.qbuf[:1])
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
// and records choices on the trail.
func (m *matcher) match(ds *dlist, as []*ast.Node) bool {
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
		return m.match(rest, as)
	}

	switch d.Kind {
	case All:
		switch d.Label {
		case ast.KindEmpty:
			return m.match(rest, as)
		case ast.KindSeq:
			return m.match(m.consChildren(d.Children, rest), as)
		default:
			if len(as) == 0 {
				return false
			}
			a := as[0]
			if a.Kind != d.Label || a.Value != d.Value {
				return false
			}
			mk := m.mark()
			if !m.match(m.consChildren(d.Children, nil), a.Children) {
				m.undo(mk)
				return false
			}
			if !m.match(rest, as[1:]) {
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
			if m.match(m.cons(c, rest), as) {
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
			if m.match(m.cons(d.Children[0], rest), as) {
				return true
			}
			m.undo(mk)
		}
		m.record(d, -1)
		if m.match(rest, as) {
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
			if m.match(m.cons(d.Children[0], m.cons(d, rest)), as) {
				return true
			}
			m.undo(mk)
		}
		m.record(d, -1)
		if m.match(rest, as) {
			return true
		}
		m.undo(mk)
		return false
	}
	return false
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
