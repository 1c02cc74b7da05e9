package cluster

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

func parseAll(t testing.TB, srcs ...string) []*ast.Node {
	t.Helper()
	out := make([]*ast.Node, len(srcs))
	for i, s := range srcs {
		out[i] = sqlparser.MustParse(s)
	}
	return out
}

func TestSplitSeparatesUnrelatedTasks(t *testing.T) {
	// Two interleaved tasks: SDSS-style scans and sales aggregates.
	log := parseAll(t,
		"select top 10 objid from stars where u between 0 and 30",
		"select region, sum(revenue) from sales where year = 2019 group by region",
		"select top 100 objid from stars where u between 5 and 25",
		"select region, sum(revenue) from sales where year = 2020 group by region",
		"select top 1000 objid from stars where u between 1 and 29",
	)
	cs := Split(log)
	if len(cs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cs))
	}
	if len(cs[0].Queries) != 3 || len(cs[1].Queries) != 2 {
		t.Errorf("cluster sizes: %d, %d", len(cs[0].Queries), len(cs[1].Queries))
	}
	// Log order preserved inside clusters.
	if cs[0].Indexes[0] != 0 || cs[0].Indexes[1] != 2 || cs[0].Indexes[2] != 4 {
		t.Errorf("cluster 0 indexes: %v", cs[0].Indexes)
	}
	if cs[1].Indexes[0] != 1 {
		t.Errorf("cluster order: %v", cs[1].Indexes)
	}
}

func TestSplitKeepsLiteralVariantsTogether(t *testing.T) {
	// The SDSS log differs only in tables/literals/aggregates; it should
	// remain one cluster (it is one analysis task).
	log := workload.SDSSLog()
	cs := Split(log)
	if len(cs) != 1 {
		for i, c := range cs {
			t.Logf("cluster %d: %d queries", i, len(c.Queries))
		}
		t.Fatalf("SDSS log should be a single cluster, got %d", len(cs))
	}
	if len(cs[0].Queries) != 10 {
		t.Errorf("queries = %d", len(cs[0].Queries))
	}
}

func TestSplitEdgeCases(t *testing.T) {
	if Split(nil) != nil {
		t.Error("empty log → nil")
	}
	one := parseAll(t, "select a from t")
	cs := Split(one)
	if len(cs) != 1 || len(cs[0].Queries) != 1 {
		t.Error("single query → single cluster")
	}
}

func TestSimilarityProperties(t *testing.T) {
	q1 := sqlparser.MustParse("select top 10 objid from stars where u between 0 and 30")
	q2 := sqlparser.MustParse("select top 99 objid from stars where u between 5 and 9")
	q3 := sqlparser.MustParse("select region, sum(revenue) from sales group by region")

	p1, p2, p3 := profileOf(q1), profileOf(q2), profileOf(q3)
	if s := Similarity(p1, p1); s != 1 {
		t.Errorf("self similarity = %f", s)
	}
	if Similarity(p1, p2) != Similarity(p2, p1) {
		t.Error("similarity must be symmetric")
	}
	// Literal-only variation scores (near-)identical; unrelated tasks score low.
	if s := Similarity(p1, p2); s < 0.95 {
		t.Errorf("literal variants similarity = %f", s)
	}
	if s := Similarity(p1, p3); s > 0.3 {
		t.Errorf("unrelated queries similarity = %f", s)
	}
	if Similarity(profile{}, profile{}) != 1 {
		t.Error("empty profiles are identical")
	}
}
