package ast

import "hash/fnv"

// Hash returns a structural 64-bit hash of the subtree. Equal trees hash
// equally; unequal trees collide with FNV-1a's usual probability.
func Hash(n *Node) uint64 {
	h := fnv.New64a()
	writeHash(n, h)
	return h.Sum64()
}

type byteWriter interface{ Write([]byte) (int, error) }

func writeHash(n *Node, h byteWriter) {
	if n == nil {
		h.Write([]byte{0xff})
		return
	}
	h.Write([]byte{byte(n.Kind)})
	h.Write([]byte(n.Value))
	h.Write([]byte{0x1f})
	for _, c := range n.Children {
		writeHash(c, h)
	}
	h.Write([]byte{0x1e})
}

// Dedup returns the input trees with structural duplicates removed,
// preserving first-occurrence order.
func Dedup(ns []*Node) []*Node {
	seen := make(map[uint64][]*Node, len(ns))
	out := ns[:0:0]
	for _, n := range ns {
		h := Hash(n)
		dup := false
		for _, prev := range seen[h] {
			if Equal(prev, n) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], n)
			out = append(out, n)
		}
	}
	return out
}
