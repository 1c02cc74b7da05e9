// Package assign maps a difftree to concrete widget trees ("Creating Widget
// Trees" in the paper): each choice node becomes one interaction widget, and
// each ALL node with choice-bearing descendants becomes a layout widget. The
// open decisions — which widget template per choice node, and which direction
// per layout box — form a small discrete space that the search samples
// randomly (k times per reward, per the paper) and enumerates exhaustively
// for the final state.
package assign

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/widgets"
)

// ErrNoWidget reports a choice node that no widget template can express
// (e.g. a nested choice with too many alternatives for tabs); such difftrees
// have infinite cost.
var ErrNoWidget = errors.New("assign: choice node has no applicable widget")

// decisionKind distinguishes the two decision types in a plan.
type decisionKind uint8

const (
	pickWidget decisionKind = iota
	pickDir
)

// decision is one open slot in the assignment vector.
type decision struct {
	kind       decisionKind
	node       *difftree.Node
	candidates []widgets.Type // widget templates, or {VBox, HBox} for boxes
}

// Plan is the assignment skeleton for one difftree: the ordered list of
// decisions and the domains computed for every choice node.
type Plan struct {
	root      *difftree.Node
	decisions []decision
	domains   []choiceDomain // one per choice node, in build's visit order
}

// choiceDomain is a choice node's widget domain, labels included, computed
// once per plan and shared by every widget tree the plan materializes.
type choiceDomain struct {
	node *difftree.Node
	dom  widgets.Domain
}

// boxDirs are the direction candidates for a layout box.
var boxDirs = []widgets.Type{widgets.VBox, widgets.HBox}

// BuildPlan analyses the difftree and returns its assignment plan. It fails
// with ErrNoWidget if some choice node has no applicable widget template.
// Feasibility and every decision's candidates depend on a domain's shape —
// its alternative count and flags — never on its option labels, so the
// analysis renders no label; only a plan that succeeds renders each choice
// node's labels, once (most states the search scores have no plan).
func BuildPlan(root *difftree.Node) (*Plan, error) {
	p := &Plan{root: root}
	if _, err := build(root, nil, &builder{plan: p, planning: true}); err != nil {
		return nil, err
	}
	for i := range p.domains {
		if cd := &p.domains[i]; cd.dom.Kind == widgets.ChoiceDomain {
			cd.dom.Options = difftree.OptionLabels(cd.node)
		}
	}
	return p, nil
}

// Decisions returns the number of open decisions.
func (p *Plan) Decisions() int { return len(p.decisions) }

// SpaceSize returns the number of distinct assignments, saturating at cap.
func (p *Plan) SpaceSize(cap int) int {
	n := 1
	for _, d := range p.decisions {
		n *= len(d.candidates)
		if n >= cap {
			return cap
		}
	}
	return n
}

// Assignment materializes the widget tree for a decision vector (one index
// per decision, in plan order). Its widgets carry the plan's domains. It
// panics on malformed vectors; callers use Random/Enumerate/First which
// always produce well-formed ones.
func (p *Plan) Assignment(picks []int) *layout.Node {
	if len(picks) != len(p.decisions) {
		panic(fmt.Sprintf("assign: vector length %d, want %d", len(picks), len(p.decisions)))
	}
	n, err := build(p.root, nil, &builder{plan: p, picks: picks})
	if err != nil {
		panic("assign: plan/build divergence: " + err.Error())
	}
	return n
}

// First returns the widget tree choosing every first candidate (the
// lowest-M template per slot, since candidates are cost-sorted).
func (p *Plan) First() *layout.Node {
	return p.Assignment(make([]int, len(p.decisions)))
}

// Random samples a uniform random assignment.
func (p *Plan) Random(rng *rand.Rand) *layout.Node {
	picks := make([]int, len(p.decisions))
	for i, d := range p.decisions {
		picks[i] = rng.Intn(len(d.candidates))
	}
	return p.Assignment(picks)
}

// Enumerate visits every assignment (up to limit trees) in lexicographic
// order; fn returning false stops early. It reports whether enumeration was
// exhaustive.
func (p *Plan) Enumerate(limit int, fn func(*layout.Node) bool) bool {
	picks := make([]int, len(p.decisions))
	count := 0
	for {
		if count >= limit {
			return false
		}
		count++
		if !fn(p.Assignment(picks)) {
			return true
		}
		// Odometer increment.
		i := len(picks) - 1
		for i >= 0 {
			picks[i]++
			if picks[i] < len(p.decisions[i].candidates) {
				break
			}
			picks[i] = 0
			i--
		}
		if i < 0 {
			return true
		}
	}
}

// builder supplies domains and decisions while build walks a difftree. The
// planning pass computes each choice node's label-free domain shape and
// records the candidates of every decision, picking the first; the
// materialization pass replays the plan's domains and the vector's picks in
// the same visit order.
type builder struct {
	plan     *Plan
	planning bool
	picks    []int
	next     int // decisions consumed
	doms     int // domains consumed
}

// domain returns the widget domain of choice node d.
func (b *builder) domain(d, parent *difftree.Node) widgets.Domain {
	if b.planning {
		dom := domainShape(d, parent)
		b.plan.domains = append(b.plan.domains, choiceDomain{node: d, dom: dom})
		return dom
	}
	cd := b.plan.domains[b.doms]
	if cd.node != d {
		panic("assign: plan/build divergence")
	}
	b.doms++
	return cd.dom
}

// pick returns the template for one decision on node. While planning, it
// records the candidates computed by cands and picks the first; ok is false
// when there are none. Otherwise it returns the vector's pick among the
// recorded candidates.
func (b *builder) pick(kind decisionKind, node *difftree.Node, cands func() []widgets.Type) (t widgets.Type, ok bool) {
	if b.planning {
		cs := cands()
		if len(cs) == 0 {
			return 0, false
		}
		b.plan.decisions = append(b.plan.decisions, decision{kind: kind, node: node, candidates: cs})
		return cs[0], true
	}
	d := b.plan.decisions[b.next]
	if d.kind != kind || d.node != node {
		panic("assign: plan/build divergence")
	}
	t = d.candidates[b.picks[b.next]]
	b.next++
	return t, true
}

// build constructs the widget tree for the subtree rooted at d. It returns
// nil for subtrees without choice nodes (static structure needs no widget).
func build(d *difftree.Node, parent *difftree.Node, b *builder) (*layout.Node, error) {
	if d == nil || !d.HasChoice() {
		return nil, nil
	}
	switch d.Kind {
	case difftree.All:
		var kids []*layout.Node
		for _, c := range d.Children {
			k, err := build(c, d, b)
			if err != nil {
				return nil, err
			}
			if k != nil {
				kids = append(kids, k)
			}
		}
		return box(d, kids, b), nil

	case difftree.Any:
		dom := b.domain(d, parent)
		if dom.Nested {
			// Alternatives carry inner widgets: tabs with per-alternative
			// panels is the only template that can host them.
			if widgets.IsInf(widgets.Appropriateness(widgets.Tabs, dom)) {
				return nil, fmt.Errorf("%w: %d nested alternatives", ErrNoWidget, len(d.Children))
			}
			tabs := &layout.Node{Type: widgets.Tabs, Domain: dom, Title: dom.Title, Choice: d}
			for _, alt := range d.Children {
				panel, err := build(alt, d, b)
				if err != nil {
					return nil, err
				}
				if panel != nil {
					tabs.Children = append(tabs.Children, panel)
				}
			}
			return tabs, nil
		}
		t, ok := b.pick(pickWidget, d, func() []widgets.Type {
			return sortedCandidates(dom, widgets.Tabs) // leaf tabs excluded; they exist for nesting
		})
		if !ok {
			return nil, fmt.Errorf("%w: %d alternatives (scalar=%v)", ErrNoWidget, len(d.Children), dom.Scalar)
		}
		return layout.NewWidget(t, dom, d), nil

	case difftree.Opt:
		dom := b.domain(d, parent)
		// A toggle domain always admits Toggle and Checkbox.
		t, _ := b.pick(pickWidget, d, func() []widgets.Type { return sortedCandidates(dom) })
		toggle := layout.NewWidget(t, dom, d)
		inner, err := build(d.Children[0], d, b)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			return toggle, nil
		}
		// The toggle and its dependent widgets are grouped, as in the
		// paper's Figure 2(b) (toggle + dropdown share a bounding box).
		return box(d, []*layout.Node{toggle, inner}, b), nil

	case difftree.Multi:
		dom := b.domain(d, parent)
		adder := &layout.Node{Type: widgets.Adder, Domain: dom, Title: dom.Title, Choice: d}
		inner, err := build(d.Children[0], d, b)
		if err != nil {
			return nil, err
		}
		if inner != nil {
			adder.Children = append(adder.Children, inner)
		}
		return adder, nil
	}
	return nil, nil
}

// box wraps children in a layout container with a direction decision; single
// children pass through unwrapped.
func box(owner *difftree.Node, kids []*layout.Node, b *builder) *layout.Node {
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return kids[0]
	default:
		dir, _ := b.pick(pickDir, owner, func() []widgets.Type { return boxDirs })
		return layout.NewBox(dir, kids...)
	}
}

// sortedCandidates returns applicable widget templates sorted by ascending
// appropriateness cost, excluding the given types.
func sortedCandidates(dom widgets.Domain, exclude ...widgets.Type) []widgets.Type {
	var out []widgets.Type
	for _, t := range widgets.Candidates(dom) {
		skip := false
		for _, e := range exclude {
			if t == e {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, t)
		}
	}
	// Insertion sort by M (tiny slices).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && widgets.Appropriateness(out[j], dom) < widgets.Appropriateness(out[j-1], dom); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DomainOf computes the widget domain a choice node exposes. The parent
// difftree node provides context (e.g. BETWEEN bounds are range-slider
// friendly). It is the reference for the domains a Plan computes once and
// shares across its widget trees.
func DomainOf(d *difftree.Node, parent *difftree.Node) widgets.Domain {
	dom := domainShape(d, parent)
	if dom.Kind == widgets.ChoiceDomain {
		dom.Options = difftree.OptionLabels(d)
	}
	return dom
}

// unlabeled backs the placeholder options of domain shapes. It is never
// written: a shape's options are replaced wholesale once labels render.
var unlabeled [64]string

// domainShape is DomainOf without rendering option labels: a choice
// domain's Options holds one empty placeholder per alternative, which is
// all that widget applicability and appropriateness read of them.
func domainShape(d *difftree.Node, parent *difftree.Node) widgets.Domain {
	switch d.Kind {
	case difftree.Opt:
		return widgets.Domain{Kind: widgets.ToggleDomain, Title: difftree.NodeTitle(d)}
	case difftree.Multi:
		return widgets.Domain{Kind: widgets.RepeatDomain, Title: difftree.NodeTitle(d)}
	}
	var opts []string
	if n := len(d.Children); n <= len(unlabeled) {
		opts = unlabeled[:n:n]
	} else {
		opts = make([]string, n)
	}
	dom := widgets.Domain{
		Kind:    widgets.ChoiceDomain,
		Title:   difftree.NodeTitle(d),
		Options: opts,
		Scalar:  true,
		Numeric: true,
	}
	excess := 0
	for _, alt := range d.Children {
		if alt.HasChoice() {
			dom.Nested = true
		}
		if alt.IsEmpty() {
			dom.Numeric = false // "(none)" is not a slider stop
			continue
		}
		excess += alt.Size() - 1
		isLeaf := alt.Kind == difftree.All && len(alt.Children) == 0 && !alt.IsSeq()
		if !isLeaf {
			dom.Scalar = false
			dom.Numeric = false
		} else if !numericValue(alt.Value) {
			dom.Numeric = false
		}
	}
	if len(d.Children) > 0 {
		dom.Complexity = float64(excess) / float64(len(d.Children))
	}
	if dom.Nested {
		dom.Scalar = false
		dom.Numeric = false
	}
	if dom.Numeric && parent != nil && parent.Kind == difftree.All && parent.Label == ast.KindBetween {
		dom.Bounds = true
	}
	// The multi-table extension's linked widgets get descriptive captions: a
	// table choice directly inside a Join is the join-partner picker, and a
	// choice directly inside a Union switches the active branch.
	if parent != nil && parent.Kind == difftree.All {
		switch {
		case parent.Label == ast.KindJoin && allTables(d):
			dom.Title = "join partner"
		case parent.Label == ast.KindUnion:
			dom.Title = "union branch"
		}
	}
	return dom
}

// allTables reports whether every alternative of a choice node is a plain
// Table leaf (∅ alternatives allowed).
func allTables(d *difftree.Node) bool {
	for _, c := range d.Children {
		if c.IsEmpty() {
			continue
		}
		if c.Kind != difftree.All || c.Label != ast.KindTable {
			return false
		}
	}
	return len(d.Children) > 0
}

func numericValue(s string) bool {
	return ast.Leaf(ast.KindNumExpr, s).IsNumericValue()
}
