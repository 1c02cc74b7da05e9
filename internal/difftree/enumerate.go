package difftree

import "repro/internal/ast"

// EnumerateQueries generates up to limit distinct queries the difftree can
// express. Multi nodes are expanded with 0..maxMulti instances. The result
// order is deterministic (choice-index order, depth first).
func EnumerateQueries(root *Node, limit, maxMulti int) []*ast.Node {
	if limit <= 0 {
		return nil
	}
	e := &enumerator{limit: limit, maxMulti: maxMulti}
	seqs := e.expand(root)
	var out []*ast.Node
	seen := make(map[uint64][]*ast.Node)
	for _, s := range seqs {
		if len(s) != 1 {
			continue
		}
		q := s[0]
		h := ast.Hash(q)
		dup := false
		for _, prev := range seen[h] {
			if ast.Equal(prev, q) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], q)
		out = append(out, q)
		if len(out) >= limit {
			break
		}
	}
	return out
}

type enumerator struct {
	limit    int
	maxMulti int
}

// expand returns all AST-node sequences the subtree can generate, truncated
// to keep at most limit*4 partial candidates alive (the caller dedups and
// trims to limit).
func (e *enumerator) expand(n *Node) [][]*ast.Node {
	cap_ := e.limit * 4
	if cap_ < 16 {
		cap_ = 16
	}
	switch n.Kind {
	case All:
		switch n.Label {
		case ast.KindEmpty:
			return [][]*ast.Node{nil}
		case ast.KindSeq:
			return e.expandConcat(n.Children, cap_)
		default:
			kidSeqs := e.expandConcat(n.Children, cap_)
			out := make([][]*ast.Node, 0, len(kidSeqs))
			for _, ks := range kidSeqs {
				out = append(out, []*ast.Node{{Kind: n.Label, Value: n.Value, Children: ks}})
			}
			return out
		}
	case Any:
		var out [][]*ast.Node
		for _, c := range n.Children {
			out = append(out, e.expand(c)...)
			if len(out) > cap_ {
				out = out[:cap_]
				break
			}
		}
		return out
	case Opt:
		out := [][]*ast.Node{nil}
		out = append(out, e.expand(n.Children[0])...)
		if len(out) > cap_ {
			out = out[:cap_]
		}
		return out
	case Multi:
		// 0..maxMulti concatenated instances.
		out := [][]*ast.Node{nil}
		inst := e.expand(n.Children[0])
		prev := [][]*ast.Node{nil}
		for k := 0; k < e.maxMulti; k++ {
			var next [][]*ast.Node
			for _, p := range prev {
				for _, i := range inst {
					cat := append(append([]*ast.Node{}, p...), i...)
					next = append(next, cat)
					if len(next) > cap_ {
						break
					}
				}
				if len(next) > cap_ {
					break
				}
			}
			out = append(out, next...)
			prev = next
			if len(out) > cap_ {
				out = out[:cap_]
				break
			}
		}
		return out
	}
	return nil
}

func (e *enumerator) expandConcat(children []*Node, cap_ int) [][]*ast.Node {
	acc := [][]*ast.Node{nil}
	for _, c := range children {
		sub := e.expand(c)
		var next [][]*ast.Node
		for _, a := range acc {
			for _, s := range sub {
				cat := append(append([]*ast.Node{}, a...), s...)
				next = append(next, cat)
				if len(next) > cap_ {
					break
				}
			}
			if len(next) > cap_ {
				break
			}
		}
		acc = next
	}
	return acc
}
