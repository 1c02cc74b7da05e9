package difftree

import (
	"errors"

	"repro/internal/ast"
)

// Initial builds the paper's initial search state: the input query ASTs
// (duplicates removed) connected with an ANY root. A single distinct query
// yields its plain All-tree.
func Initial(queries []*ast.Node) (*Node, error) {
	if len(queries) == 0 {
		return nil, errors.New("difftree: empty query log")
	}
	distinct := ast.Dedup(queries)
	if len(distinct) == 1 {
		return FromAST(distinct[0]), nil
	}
	kids := make([]*Node, len(distinct))
	for i, q := range distinct {
		kids[i] = FromAST(q)
	}
	return NewAny(kids...), nil
}

// Validate checks the structural invariants every difftree must satisfy:
//
//   - Any nodes have >= 1 child,
//   - Opt and Multi nodes have exactly one child,
//   - Multi children are not nullable (otherwise matching would diverge),
//   - All nodes carry a valid grammar label,
//   - Empty nodes are leaves.
//
// A valid tree returns through the per-node memo (validSubtree), so a tree
// built by a copy-on-write edit of a checked tree walks only its fresh
// spine; an invalid one is walked again to name the first offending path.
func Validate(root *Node) error {
	if validSubtree(root) {
		return nil
	}
	var err error
	WalkPath(root, func(n *Node, p Path) bool {
		if err != nil {
			return false
		}
		if msg := invalid(n); msg != "" {
			err = errorsAt(p, msg)
		}
		return true
	})
	return err
}

// invalid returns the invariant n itself breaks, its children's aside, or
// "" when it breaks none.
func invalid(n *Node) string {
	switch n.Kind {
	case Any:
		if len(n.Children) == 0 {
			return "ANY node with no children"
		}
	case Opt:
		if len(n.Children) != 1 {
			return "OPT node must have exactly one child"
		}
	case Multi:
		if len(n.Children) != 1 {
			return "MULTI node must have exactly one child"
		}
		if Nullable(n.Children[0]) {
			return "MULTI child must not be nullable"
		}
	case All:
		if n.Label == ast.KindEmpty && len(n.Children) != 0 {
			return "Empty node must be a leaf"
		}
		if !n.Label.Valid() {
			return "ALL node with invalid grammar label"
		}
	}
	return ""
}

// validSubtree reports Validate(n) == nil, memoized per node: nodes are
// immutable, so a subtree that passed once is not walked again.
func validSubtree(n *Node) bool {
	if n == nil || n.valid.Load() {
		return true
	}
	if invalid(n) != "" {
		return false
	}
	for _, c := range n.Children {
		if !validSubtree(c) {
			return false
		}
	}
	n.valid.Store(true)
	return true
}

// ValidEdit reports whether Validate(next) == nil, for next built from a
// valid tree by replacing the subtree at p. Only the replacement and the
// spine can differ from the valid original: spine copies keep their kind,
// label and arity, so the one check they can newly fail is a Multi whose
// child on the spine became nullable. The replacement's check is memoized
// per node, so subtrees a rewrite shares with the original are walked once.
func ValidEdit(next *Node, p Path) bool {
	n := next
	for _, i := range p {
		if n == nil || i < 0 || i >= len(n.Children) {
			return false
		}
		if n.Kind == Multi && Nullable(n.Children[i]) {
			return false
		}
		n = n.Children[i]
	}
	return validSubtree(n)
}

// ValidReplace reports whether Validate(ReplaceAt(root, p, sub)) == nil,
// for a valid root whose subtree at p is n. Spine copies keep kind, label
// and arity, so the edit is valid iff sub is and the spine stays valid
// under sub's nullability (ValidNullable); neither check builds the spine.
func ValidReplace(root *Node, p Path, n, sub *Node) bool {
	nullable := Nullable(sub)
	if nullable == Nullable(n) {
		return validSubtree(sub)
	}
	return ValidNullable(root, p, nullable) && validSubtree(sub)
}

// ValidNullable reports whether the spine of a valid root stays valid when
// its subtree at p is replaced by a subtree whose nullability is nullable:
// the one invariant a spine copy can newly break is a Multi whose child
// became nullable. It walks back up the spine only while the nullability
// keeps differing from the original's, and builds nothing. It is false
// when p leaves the tree.
func ValidNullable(root *Node, p Path, nullable bool) bool {
	var buf [32]*Node
	spine := buf[:0]
	n := root
	for _, i := range p {
		if n == nil || i < 0 || i >= len(n.Children) {
			return false
		}
		spine = append(spine, n)
		n = n.Children[i]
	}
	if n == nil {
		return false
	}
	if nullable == Nullable(n) {
		return true
	}
	for j := len(spine) - 1; j >= 0; j-- {
		a := spine[j]
		if a.Kind == Multi && nullable {
			return false
		}
		now := nullableWith(a, p[j], nullable)
		if now == Nullable(a) {
			return true
		}
		nullable = now
	}
	return true
}

// nullableWith is Nullable(a) with the nullability of a's child i taken as
// child.
func nullableWith(a *Node, i int, child bool) bool {
	switch a.Kind {
	case All:
		if a.Label != ast.KindSeq || !child {
			return false
		}
		for k, c := range a.Children {
			if k != i && !Nullable(c) {
				return false
			}
		}
		return true
	case Any:
		if child {
			return true
		}
		for k, c := range a.Children {
			if k != i && Nullable(c) {
				return true
			}
		}
		return false
	}
	return true // Opt, Multi
}

func errorsAt(p Path, msg string) error {
	return errors.New("difftree: at " + p.String() + ": " + msg)
}

// ReplaceAt returns root with the subtree at path p replaced by repl (used
// as-is). Only the spine from the root to p is fresh; untouched siblings are
// shared with the input — difftrees are treated as immutable values
// throughout the system, so structural sharing is safe and keeps rule
// application cheap. It returns nil when p is invalid.
func ReplaceAt(root *Node, p Path, repl *Node) *Node {
	if len(p) == 0 {
		return repl
	}
	if root == nil || p[0] < 0 || p[0] >= len(root.Children) {
		return nil
	}
	sub := ReplaceAt(root.Children[p[0]], p[1:], repl)
	if sub == nil {
		return nil
	}
	out := &Node{Kind: root.Kind, Label: root.Label, Value: root.Value,
		Children: make([]*Node, len(root.Children))}
	copy(out.Children, root.Children)
	out.Children[p[0]] = sub
	return out
}
