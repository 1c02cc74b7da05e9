// Package rules implements the paper's difftree transformation rules
// (Figure 5): Any2All, Lift, MultiMerge, Optional, and Noop, together with
// their inverses (all rules are bidirectional except MultiMerge), plus
// GroupAny, which partitions a mixed-shape ANY into factorable same-head
// groups (needed once logs mix SELECTs with UNION chains and join variants;
// Flatten is its inverse).
//
// A rule rewrites the subtree rooted at one node; a Move names a rule and
// the path of the node it applies to. Moves(root, queries) enumerates every
// legal move, filtering out rewrites that would make any input query
// inexpressible — the system-wide invariant.
package rules

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/difftree"
)

// Rule rewrites a single difftree node.
type Rule interface {
	// Name identifies the rule (stable; used in Move and logs).
	Name() string
	// Apply attempts the rewrite on the subtree rooted at n and returns the
	// replacement subtree. It must not mutate n. ok is false when the rule's
	// input pattern does not match.
	Apply(n *difftree.Node) (out *difftree.Node, ok bool)
}

// Move is one applicable (rule, node) pair.
type Move struct {
	Rule string
	Path difftree.Path
}

func (m Move) String() string { return fmt.Sprintf("%s@%s", m.Rule, m.Path) }

// All returns the full rule set in canonical order.
func All() []Rule {
	return []Rule{
		Any2All{},
		All2Any{},
		Lift{},
		Unlift{},
		MultiMerge{},
		Optional{},
		Unoptional{},
		Unwrap{},
		Flatten{},
		DedupAny{},
		Wrap{},
		GroupAny{},
	}
}

// MatchKinds maps each built-in rule to the difftree node kinds its pattern
// can match. Move enumerators and rollout samplers read it through KindMask
// to skip (rule, node) pairs that cannot possibly apply; rules absent from
// the table are tried on every node.
var MatchKinds = map[string]map[difftree.Kind]bool{
	"Any2All":    {difftree.Any: true},
	"All2Any":    {difftree.All: true},
	"Lift":       {difftree.Any: true},
	"Unlift":     {difftree.All: true},
	"MultiMerge": {difftree.Any: true, difftree.All: true},
	"Optional":   {difftree.Any: true},
	"Unoptional": {difftree.Opt: true},
	"Unwrap":     {difftree.Any: true},
	"Flatten":    {difftree.Any: true},
	"DedupAny":   {difftree.Any: true},
	"Wrap":       {difftree.All: true},
	"GroupAny":   {difftree.Any: true},
}

// KindMask returns r's MatchKinds row as a bitmask with bit k set for each
// difftree.Kind k the rule can match: all four bits for a rule absent from
// the table. Hot loops compute it once per rule instead of looking the
// table up by name for every (node, rule) pair.
func KindMask(r Rule) uint8 {
	kinds, ok := MatchKinds[r.Name()]
	if !ok {
		return 1<<(difftree.Multi+1) - 1
	}
	var m uint8
	for k, yes := range kinds {
		if yes {
			m |= 1 << k
		}
	}
	return m
}

var ruleByName = func() map[string]Rule {
	m := make(map[string]Rule)
	for _, r := range All() {
		m[r.Name()] = r
	}
	return m
}()

// ByName looks a rule up by its name.
func ByName(name string) (Rule, bool) {
	r, ok := ruleByName[name]
	return r, ok
}

// parentAware lets a rule veto application based on the node's parent; used
// by Wrap to bound fanout (wrapping is only useful on choice alternatives).
type parentAware interface {
	AllowedUnder(parent *difftree.Node) bool
}

// widening marks the built-in rules whose rewrite generates a superset of
// the rewritten node's language; see Widens.
type widening interface {
	widens()
}

// Widens reports whether r is a built-in rule whose rewrite generates a
// superset of the rewritten node's language: it only regroups (Lift,
// Unlift, Optional, Unoptional, Unwrap, Wrap, Flatten, DedupAny, GroupAny)
// or widens (MultiMerge) what the node can generate. A difftree node's
// language does not depend on its context, so such a rewrite keeps every
// derivation of the tree it edits: applied to a legal state, its result
// expresses every query the state did and needs no re-match, only the size
// and structural checks. Any2All and All2Any can drop a query and do not
// widen. The marker method is unexported, so a rule type defined outside
// this package cannot declare it.
func Widens(r Rule) bool {
	_, ok := r.(widening)
	return ok
}

func (Lift) widens()       {}
func (Unlift) widens()     {}
func (MultiMerge) widens() {}
func (Optional) widens()   {}
func (Unoptional) widens() {}
func (Unwrap) widens()     {}
func (Wrap) widens()       {}
func (Flatten) widens()    {}
func (DedupAny) widens()   {}
func (GroupAny) widens()   {}

// LegalState reports whether a rewritten difftree satisfies the system
// invariant: structurally valid and still expressing every input query. It
// re-matches every query against the whole tree with no match memo (the
// structural check skips only subtrees already found valid), which makes
// it the reference oracle for eval.Engine: the engine skips the re-match
// for widening rewrites of a legal state (Widens), and re-matches the rest
// through a difftree.MatchMemo.
func LegalState(next *difftree.Node, queries []*ast.Node) bool {
	return difftree.Validate(next) == nil && difftree.ExpressibleAll(next, queries)
}

// Candidate applies one (rule, path) pattern without the legality gate,
// returning the rewritten tree. Callers must check LegalState (directly or
// through a cache) before treating the result as a search state.
func Candidate(root *difftree.Node, p difftree.Path, r Rule) (*difftree.Node, bool) {
	n, parent := lookup(root, p)
	sub, ok := Rewrite(n, parent, r)
	if !ok {
		return nil, false
	}
	next := difftree.ReplaceAt(root, p, sub)
	return next, next != nil
}

// CandidateArena is Candidate with the copy-on-write spine bump-allocated
// from a. The returned tree obeys difftree.SpineArena's lifetime contract: it
// is valid only until a.Reset and must not be retained as a search state —
// callers that keep a candidate rebuild it with Candidate.
func CandidateArena(root *difftree.Node, p difftree.Path, r Rule, a *difftree.SpineArena) (*difftree.Node, bool) {
	n, parent := lookup(root, p)
	sub, ok := Rewrite(n, parent, r)
	if !ok {
		return nil, false
	}
	next := a.ReplaceAt(root, p, sub)
	return next, next != nil
}

// Rewrite applies r to the node n whose parent is parent (nil for the
// root), honouring a parent-aware rule's veto, and returns the replacement
// subtree without building the rewritten tree. Walkers hand in the node and
// parent they hold, so a try walks no path, and a pattern that does not
// match is rejected before anything is allocated. Callers that judge a
// candidate from the replacement alone (eval.Engine's widening verdicts)
// build the tree only when they keep it, with difftree.ReplaceAt.
func Rewrite(n, parent *difftree.Node, r Rule) (*difftree.Node, bool) {
	if n == nil {
		return nil, false
	}
	if pa, ok := r.(parentAware); ok && !pa.AllowedUnder(parent) {
		return nil, false
	}
	return r.Apply(n)
}

// lookup returns the node at p and its parent (nil for the root); n is nil
// when p leaves the tree.
func lookup(root *difftree.Node, p difftree.Path) (n, parent *difftree.Node) {
	n = root
	for _, i := range p {
		if n == nil || i < 0 || i >= len(n.Children) {
			return nil, nil
		}
		parent, n = n, n.Children[i]
	}
	return n, parent
}

// Moves enumerates all legal moves on root using the given rule set: the
// rule pattern matches, the resulting tree validates, and every query stays
// expressible. The result order is deterministic (pre-order paths, rule
// order). Every candidate goes through the full LegalState re-match, which
// makes Moves the oracle that eval.Engine.Moves (re-match skipped for
// widening rules, size-capped, memoized) is differentially tested against.
func Moves(root *difftree.Node, queries []*ast.Node, set []Rule) []Move {
	var out []Move
	difftree.WalkPath(root, func(n *difftree.Node, p difftree.Path) bool {
		for _, r := range set {
			next, ok := Candidate(root, p, r)
			if !ok || !LegalState(next, queries) {
				continue
			}
			out = append(out, Move{Rule: r.Name(), Path: p.Clone()})
		}
		return true
	})
	return out
}

// ApplyMove applies a move to root through Candidate, returning the
// rewritten tree; it does not check legality. It errors if the rule is
// unknown or the move does not apply to root, as a move listed for another
// tree may not: its path leaves the tree, its pattern does not match there,
// or the rule vetoes the node's parent.
func ApplyMove(root *difftree.Node, m Move) (*difftree.Node, error) {
	r, ok := ByName(m.Rule)
	if !ok {
		return nil, fmt.Errorf("rules: unknown rule %q", m.Rule)
	}
	next, ok := Candidate(root, m.Path, r)
	if !ok {
		return nil, fmt.Errorf("rules: move %s does not apply", m)
	}
	return next, nil
}

// dedup removes structural duplicates from ns in place, preserving order: a
// node is dropped when an earlier kept one is Equal to it. The caller must
// own ns. Node lists here are alternatives of one choice, a handful long, so
// a scan of the kept nodes, filtered by their memoized hashes, beats
// building a hash index per call.
func dedup(ns []*difftree.Node) []*difftree.Node {
	//mctsvet:allow slicealias -- every caller passes a slice it just built and keeps only the result
	out := ns[:0]
	for _, n := range ns {
		if !containsEqual(out, n) {
			out = append(out, n)
		}
	}
	clear(ns[len(out):])
	return out
}

// containsEqual reports whether ns holds a node Equal to n.
func containsEqual(ns []*difftree.Node, n *difftree.Node) bool {
	h := difftree.Hash(n)
	for _, prev := range ns {
		if difftree.Hash(prev) == h && difftree.Equal(prev, n) {
			return true
		}
	}
	return false
}

// sameAllHead reports whether every child of n is a plain All node (not
// Empty, not Seq) sharing one (Label, Value) head; it returns that head.
func sameAllHead(n *difftree.Node) (label ast.Kind, value string, ok bool) {
	if n.Kind != difftree.Any || len(n.Children) < 2 {
		return 0, "", false
	}
	first := n.Children[0]
	if first.Kind != difftree.All || first.IsEmpty() || first.IsSeq() {
		return 0, "", false
	}
	for _, c := range n.Children[1:] {
		if c.Kind != difftree.All || c.Label != first.Label || c.Value != first.Value {
			return 0, "", false
		}
	}
	return first.Label, first.Value, true
}
