// Package cost implements the paper's interface cost function
//
//	C(W, Q) = Σ_{q_i ∈ Q} U(q_i, q_{i+1}, W) + Σ_{w ∈ W} M(w)
//
// where M(w) scores how appropriate each widget is for the subtrees it
// expresses (borrowed from Zhang, Sellam & Wu 2017) and U models the effort
// to express consecutive log queries: the size of the minimum spanning
// (Steiner) subtree of the widget tree connecting the widgets that must
// change, plus each changed widget's interaction cost. A widget tree that
// exceeds the screen is invalid and has infinite cost.
package cost

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/widgets"
)

// Model fixes the cost parameters.
type Model struct {
	// NavUnit is the navigation cost per Steiner-tree edge between changed
	// widgets (moving attention/pointer across the layout hierarchy).
	NavUnit float64
	// Screen is the output constraint; oversized interfaces are invalid.
	Screen layout.Screen
}

// DefaultNavUnit is the Steiner-edge navigation cost of the default model.
const DefaultNavUnit = 0.3

// Default returns the model used throughout the evaluation.
func Default(screen layout.Screen) Model {
	return Model{NavUnit: DefaultNavUnit, Screen: screen}
}

// Breakdown reports the cost terms of one interface.
type Breakdown struct {
	M       float64 // Σ appropriateness
	U       float64 // Σ transition effort over consecutive log queries
	Widgets int     // number of interaction widgets
	Bounds  widgets.Size
	Valid   bool   // fits the screen and expresses every log query
	Reason  string // why invalid, when Valid == false
}

// Total is the paper's C(W,Q); +Inf when invalid.
func (b Breakdown) Total() float64 {
	if !b.Valid {
		return math.Inf(1)
	}
	return b.M + b.U
}

// Evaluate scores a widget tree for a difftree against the (ordered) query
// log. The widget tree must have been built from exactly this difftree
// instance (choice-node pointers are shared). When scoring many widget trees
// for the same difftree, build an Evaluator once instead.
func (m Model) Evaluate(root *difftree.Node, ui *layout.Node, log []*ast.Node) Breakdown {
	return m.NewEvaluator(root, log).Evaluate(ui)
}

// Evaluator scores widget trees for one fixed (difftree, log) pair. The
// per-query choice assignments — the expensive part — are computed once and
// shared across every candidate widget tree, which is exactly the access
// pattern of the search's best-of-k reward and the final enumeration.
//
// Consecutive log queries whose transitions touch the same changed
// choice-node set collapse into one transition class whose U term is
// computed once per widget tree and multiplied by its multiplicity. On logs
// with recurring deltas (e.g. SDSS, where most steps flip the same
// TOP/table widgets) this rescores only the distinct changed paths instead
// of the whole log.
type Evaluator struct {
	model     Model
	root      *difftree.Node
	log       []*ast.Node
	asg       []difftree.Assignment
	classes   []transClass // deduplicated consecutive-pair changed sets
	expressOK bool
	parent    map[*difftree.Node]*difftree.Node

	// mMemo and uMemo hold the per-widget terms, M(w) and the interaction
	// cost, per placement. core.BestInterface scores up to 20 000 widget
	// trees against one evaluator, and most placements recur across them;
	// each term walks the choice node's subtrees (structuralShare), so
	// recomputing it per widget tree would dominate the enumeration.
	mMemo map[widgetKey]float64
	uMemo map[widgetKey]float64
}

// widgetKey identifies a widget template placement: for one difftree, the
// (choice node, widget type) pair determines the widget domain and hence
// both its appropriateness and its interaction cost.
type widgetKey struct {
	node *difftree.Node
	t    widgets.Type
}

// transClass is one equivalence class of consecutive-query transitions: all
// pairs whose changed choice-node sets are identical. count is the class
// multiplicity in the log.
type transClass struct {
	changed []*difftree.Node // sorted by pre-order position in the difftree
	count   int
}

// NewEvaluator expresses every log query against the difftree up front.
func (m Model) NewEvaluator(root *difftree.Node, log []*ast.Node) *Evaluator {
	e := &Evaluator{
		model: m, root: root, log: log, expressOK: true,
		mMemo: make(map[widgetKey]float64),
		uMemo: make(map[widgetKey]float64),
	}
	e.asg = make([]difftree.Assignment, len(log))
	for i, q := range log {
		a, ok := difftree.Express(root, q)
		if !ok {
			e.expressOK = false
			return e
		}
		e.asg[i] = a
	}

	// Canonical pre-order positions give changed sets a deterministic order
	// (Assignment is a map; its iteration order must not leak into float
	// summation order) and a stable class key. The same walk records parents
	// for the structural-surcharge lookup.
	pos := make(map[*difftree.Node]int)
	e.parent = make(map[*difftree.Node]*difftree.Node)
	difftree.WalkPath(root, func(n *difftree.Node, _ difftree.Path) bool {
		pos[n] = len(pos)
		for _, c := range n.Children {
			e.parent[c] = n
		}
		return true
	})

	classIdx := make(map[string]int)
	var keyBuf []byte
	for i := 0; i+1 < len(log); i++ {
		changed := e.asg[i].Changed(e.asg[i+1])
		if len(changed) == 0 {
			continue
		}
		sort.Slice(changed, func(a, b int) bool { return pos[changed[a]] < pos[changed[b]] })
		keyBuf = keyBuf[:0]
		for _, cn := range changed {
			keyBuf = binary.AppendUvarint(keyBuf, uint64(pos[cn]))
		}
		key := string(keyBuf)
		if j, ok := classIdx[key]; ok {
			e.classes[j].count++
		} else {
			classIdx[key] = len(e.classes)
			e.classes = append(e.classes, transClass{changed: changed, count: 1})
		}
	}
	return e
}

// Structural surcharges for the multi-table grammar: a widget whose options
// denote join steps, union branches, or subqueries changes the *shape* of
// the query (which tables participate), not just a literal. Explaining such
// an option takes more caption/labelling space and vetting it takes more
// user attention, so structural choices pay a flat appropriateness surcharge
// (M) and a per-use effort surcharge (U), both scaled by the share of
// alternatives that carry multi-table structure.
const (
	StructuralM = 0.4
	StructuralU = 0.2
)

// structuralKinds are the grammar rules introduced by the multi-table
// extension; a choice node is structural when its alternatives contain them.
var structuralKinds = map[ast.Kind]bool{
	ast.KindJoin:     true,
	ast.KindOn:       true,
	ast.KindUnion:    true,
	ast.KindSubquery: true,
}

// structuralShare returns how structural a choice node is: 1 when the choice
// sits directly inside a Join/On/Union/Subquery node (e.g. the join-partner
// table picker, whose alternatives are plain Table leaves), otherwise the
// fraction of its alternatives whose subtrees contain multi-table structure.
// It is 0 for every single-table choice, so the pre-extension cost surface
// is unchanged.
func (e *Evaluator) structuralShare(d *difftree.Node) float64 {
	if d == nil || len(d.Children) == 0 {
		return 0
	}
	for p := e.parent[d]; p != nil; p = e.parent[p] {
		if p.Kind == difftree.All {
			if structuralKinds[p.Label] {
				return 1
			}
			break // nearest enclosing grammar rule decides
		}
		// Skip intervening choice wrappers (OPT/ANY/MULTI chains).
	}
	n := 0
	for _, c := range d.Children {
		if containsStructural(c) {
			n++
		}
	}
	return float64(n) / float64(len(d.Children))
}

func containsStructural(d *difftree.Node) bool {
	if d == nil {
		return false
	}
	if d.Kind == difftree.All && structuralKinds[d.Label] {
		return true
	}
	for _, c := range d.Children {
		if containsStructural(c) {
			return true
		}
	}
	return false
}

// appropriateness memoizes widgets.Appropriateness plus the structural M
// surcharge per placement.
func (e *Evaluator) appropriateness(w *layout.Node) float64 {
	k := widgetKey{node: w.Choice, t: w.Type}
	if c, ok := e.mMemo[k]; ok {
		return c
	}
	c := widgets.Appropriateness(w.Type, w.Domain)
	if !widgets.IsInf(c) {
		c += StructuralM * e.structuralShare(w.Choice)
	}
	e.mMemo[k] = c
	return c
}

// interaction memoizes widgets.InteractionCost plus the structural U
// surcharge per placement.
func (e *Evaluator) interaction(w *layout.Node) float64 {
	k := widgetKey{node: w.Choice, t: w.Type}
	if c, ok := e.uMemo[k]; ok {
		return c
	}
	c := widgets.InteractionCost(w.Type, w.Domain) + StructuralU*e.structuralShare(w.Choice)
	e.uMemo[k] = c
	return c
}

// Evaluate scores one widget tree.
func (e *Evaluator) Evaluate(ui *layout.Node) Breakdown {
	b := Breakdown{Valid: true}
	if ui == nil {
		// A choice-free difftree (single static query) renders no widgets;
		// it is trivially valid with zero cost.
		if e.root.HasChoice() {
			return Breakdown{Valid: false, Reason: "no widget tree for choice-bearing difftree"}
		}
		return b
	}
	if !e.expressOK {
		return Breakdown{Valid: false, Reason: "query not expressible"}
	}

	b.Bounds = ui.Bounds()
	if b.Bounds.W > e.model.Screen.W || b.Bounds.H > e.model.Screen.H {
		return Breakdown{Bounds: b.Bounds, Valid: false, Reason: "exceeds screen " + e.model.Screen.String()}
	}

	byChoice := ui.ByChoice()
	ws := ui.Widgets()
	b.Widgets = len(ws)
	for _, w := range ws {
		c := e.appropriateness(w)
		if widgets.IsInf(c) {
			return Breakdown{Bounds: b.Bounds, Valid: false, Reason: "inapplicable widget " + w.Type.String()}
		}
		b.M += c
	}

	mark := make([]*layout.Node, 0, 8)
	for _, cl := range e.classes {
		mark = mark[:0]
		u := 0.0
		for _, cn := range cl.changed {
			w, ok := byChoice[cn]
			if !ok {
				return Breakdown{Bounds: b.Bounds, Valid: false, Reason: "changed choice without widget"}
			}
			mark = append(mark, w)
			u += e.interaction(w)
		}
		u += float64(steinerEdges(ui, mark)) * e.model.NavUnit
		b.U += u * float64(cl.count)
	}
	return b
}

// steinerEdges counts the edges of the minimal subtree of the widget tree
// that connects all marked nodes: an edge (child, parent) belongs to the
// Steiner tree iff the child's subtree contains some but not all marked
// nodes.
func steinerEdges(root *layout.Node, marked []*layout.Node) int {
	if len(marked) <= 1 {
		return 0
	}
	isMarked := make(map[*layout.Node]bool, len(marked))
	for _, n := range marked {
		isMarked[n] = true
	}
	total := len(isMarked)

	inSubtree := make(map[*layout.Node]int)
	var count func(n *layout.Node) int
	count = func(n *layout.Node) int {
		c := 0
		if isMarked[n] {
			c = 1
		}
		for _, ch := range n.Children {
			c += count(ch)
		}
		inSubtree[n] = c
		return c
	}
	count(root)

	edges := 0
	for n, cnt := range inSubtree {
		if n == root {
			continue
		}
		if cnt > 0 && cnt < total {
			edges++
		}
	}
	return edges
}
