// Package detmap reproduces the PR 2 determinism bug for the detmap
// analyzer: difftree.Assignment.Changed accumulated the changed choice-node
// set in map-iteration order, so the transition cost term — and therefore
// every search trajectory — differed across processes until the caller
// learned to sort by pre-order position.
package detmap

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

type node struct{ pos int }

// assignment mirrors difftree.Assignment: choice node -> chosen value.
type assignment map[*node]string

// changed is the PR 2 bug, verbatim modulo the package-local node type: the
// changed set is appended in map-iteration order and never sorted, so two
// runs of the same comparison return differently ordered — i.e. different —
// results.
func (a assignment) changed(b assignment) []*node {
	var out []*node
	for n, v := range a { // want `map iteration order drives an append to an outer slice`
		if bv, ok := b[n]; !ok || bv != v {
			out = append(out, n)
		}
	}
	for n := range b { // want `map iteration order drives an append to an outer slice`
		if _, ok := a[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// changedSorted is the sanctioned shape: collect, then sort before the
// order can leak. The collect-then-sort idiom must not be flagged.
func (a assignment) changedSorted(b assignment) []*node {
	var out []*node
	for n, v := range a {
		if bv, ok := b[n]; !ok || bv != v {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// countChanged only counts: integer accumulation commutes, so iteration
// order cannot show. Not flagged.
func (a assignment) countChanged(b assignment) int {
	n := 0
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			n++
		}
	}
	return n
}

// invert writes into another map: per-key inserts commute. Not flagged.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// hashValues feeds a hasher in map order: the digest differs per run.
func hashValues(m map[string]uint64) uint64 {
	h := fnv.New64a()
	for k := range m { // want `map iteration order drives a Write to an outer stream or hasher`
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// render builds a string in map order.
func render(m map[string]int) string {
	var b strings.Builder
	for k, v := range m { // want `map iteration order drives a WriteString to an outer stream or hasher`
		b.WriteString(k)
		fmt.Fprintf(&b, "=%d;", v)
	}
	return b.String()
}

// concat accumulates a string with += in map order.
func concat(m map[string]bool) string {
	s := ""
	for k := range m { // want `map iteration order drives string concatenation onto an outer variable`
		s += k
	}
	return s
}

// total sums floats in map order: float addition is not associative, so
// the sum is order-dependent at the last bit — exactly the kind of drift
// the byte-identity contract forbids.
func total(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m { // want `map iteration order drives floating-point accumulation`
		t += v
	}
	return t
}

// fingerprints collects keys into a slice that is sorted before
// returning. Not flagged.
func fingerprints(fps map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(fps))
	for fp := range fps {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// allowed demonstrates a justified suppression: the directive covers the
// loop on the next line, so no diagnostic is reported.
func allowed(m map[string]int) []string {
	var out []string
	//mctsvet:allow detmap -- testdata: unordered result, caller sorts
	for k := range m {
		out = append(out, k)
	}
	return out
}
