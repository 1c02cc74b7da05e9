package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/sqlparser"
	"repro/internal/testutil"
)

// TestQuickRandomQueryParses: every query the generator emits parses, and
// the parse/render round trip is a fixed point.
func TestQuickRandomQueryParses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			src := RandomQuerySQL(rng)
			n, err := sqlparser.Parse(src)
			if err != nil {
				t.Logf("unparsable: %q: %v", src, err)
				return false
			}
			rendered := sqlparser.Render(n)
			n2, err := sqlparser.Parse(rendered)
			if err != nil || !ast.Equal(n, n2) {
				t.Logf("round trip broke: %q -> %q", src, rendered)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(112, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomLogExpressible: the initial difftree of any random log
// expresses every query in it.
func TestQuickRandomLogExpressible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		log := RandomLog(rng, 2+rng.Intn(5))
		d, err := difftree.Initial(log)
		if err != nil {
			return false
		}
		return difftree.ExpressibleAll(d, log)
	}
	if err := quick.Check(f, testutil.QuickConfig(113, 60)); err != nil {
		t.Fatal(err)
	}
}

func TestRandomLogShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := RandomLog(rng, 8)
	if len(log) != 8 {
		t.Fatalf("len = %d", len(log))
	}
	// Mutated queries mostly share structure with the base query.
	base := log[0]
	shared := 0
	for _, q := range log[1:] {
		if sameShape(q, base) {
			shared++
		}
	}
	if shared == 0 {
		t.Error("random logs should share structure with their base query")
	}
	if RandomLog(rng, 0) != nil {
		t.Error("zero-length log")
	}
}

// sameShape reports whether a and b differ at most in leaf values: kinds,
// child counts and interior values (operators, function names) match.
func sameShape(a, b *ast.Node) bool {
	if a.Kind != b.Kind || len(a.Children) != len(b.Children) {
		return false
	}
	if len(a.Children) > 0 && a.Value != b.Value {
		return false
	}
	for i := range a.Children {
		if !sameShape(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestMutatePreservesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		q := RandomQuery(rng)
		m := mutate(q.Clone(), rng)
		// The mutated query still renders and reparses.
		src := sqlparser.Render(m)
		if _, err := sqlparser.Parse(src); err != nil {
			t.Fatalf("mutated query unparsable: %q: %v", src, err)
		}
	}
}
