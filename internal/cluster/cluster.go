// Package cluster groups a mixed query log into structurally coherent
// sub-logs, one interface per cluster. Real logs interleave unrelated
// analysis tasks; merging structurally unrelated queries into one difftree
// yields giant ANY roots and unusable interfaces (Zhang et al. 2017 face
// the same issue and mine one "template" per structural group). Clustering
// by AST shape similarity restores the paper's setting — each cluster is a
// coherent analysis task.
package cluster

import "repro/internal/ast"

// minSimilarity is the shape similarity at which two queries join the same
// cluster.
const minSimilarity = 0.5

// Cluster is a group of structurally similar queries, in log order.
type Cluster struct {
	Queries []*ast.Node
	Indexes []int // positions in the original log
}

// Split partitions the log into clusters using single-linkage agglomeration
// over shape similarity. The result order is deterministic: clusters sorted
// by their first query's log position, queries in log order.
func Split(log []*ast.Node) []Cluster {
	n := len(log)
	if n == 0 {
		return nil
	}

	profiles := make([]profile, n)
	for i, q := range log {
		profiles[i] = profileOf(q)
	}

	// Union-find over single-linkage pairs.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// The lower root wins, so every root is its set's first log position.
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Similarity(profiles[i], profiles[j]) >= minSimilarity {
				union(i, j)
			}
		}
	}

	// Roots are first positions, so a cluster opens at its root and the
	// clusters come out in first-query order.
	var clusters []Cluster
	pos := make([]int, n) // root → index in clusters
	for i, q := range log {
		r := find(i)
		if r == i {
			pos[i] = len(clusters)
			clusters = append(clusters, Cluster{})
		}
		c := &clusters[pos[r]]
		c.Queries = append(c.Queries, q)
		c.Indexes = append(c.Indexes, i)
	}
	return clusters
}

// profile is a bag of structural features of one query.
type profile map[string]int

// profileOf extracts (kind, interior-value) features with parent context:
// "Select/Where", "BiExpr:=", "FuncExpr:count", column names, table names.
// Literal leaf values are excluded so queries differing only in constants
// profile identically.
func profileOf(q *ast.Node) profile {
	p := make(profile)
	var walk func(n *ast.Node, parentKind ast.Kind)
	walk = func(n *ast.Node, parentKind ast.Kind) {
		key := parentKind.String() + "/" + n.Kind.String()
		p[key]++
		switch n.Kind {
		case ast.KindBiExpr, ast.KindFuncExpr, ast.KindSortKey:
			p[n.Kind.String()+":"+n.Value]++
		case ast.KindColExpr, ast.KindTable:
			p[n.Kind.String()+"="+n.Value]++
		}
		for _, c := range n.Children {
			walk(c, n.Kind)
		}
	}
	walk(q, ast.KindInvalid)
	return p
}

// Similarity is the cosine-free Jaccard-style overlap of two profiles:
// sum(min)/sum(max) over the united feature set, in [0,1].
func Similarity(a, b profile) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	mins, maxs := 0, 0
	seen := map[string]bool{}
	for k, av := range a {
		bv := b[k]
		seen[k] = true
		mins += min(av, bv)
		maxs += max(av, bv)
	}
	for k, bv := range b {
		if !seen[k] {
			maxs += bv
		}
	}
	if maxs == 0 {
		return 1
	}
	return float64(mins) / float64(maxs)
}
