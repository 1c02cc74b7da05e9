package mctsui

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/workload"
)

// updateGolden rewrites the fixtures instead of comparing against them:
//
//	make golden   (= go test -run TestGoldenFixtures . -args -update-golden)
//
// Regenerate only after an intentional change to search, cost, or widget
// assignment semantics, and review the fixture diff like code.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures")

// goldenCases are the end-to-end fixtures: the paper's Figure 1 log and the
// SDSS examples, generated with a small fixed budget and seed. Each fixture
// freezes the chosen difftree, the rendered interface, and the full cost
// breakdown — any unintentional drift in parsing, search, assignment,
// layout, or cost shows up as a fixture diff.
func goldenCases() map[string][]*ast.Node {
	return map[string][]*ast.Node{
		"figure1":         workload.PaperFigure1Log(),
		"sdss_full":       workload.SDSSLog(),
		"sdss_subset_6_8": workload.SDSSSubset(6, 8),
		"sdss_join":       workload.SDSSJoinLog(),
		"sdss_join_block": workload.SDSSJoinSubset(1, 6),
	}
}

// renderFixture produces the canonical fixture text for one generated
// interface. Everything in it is deterministic under a fixed seed.
func renderFixture(name string, queries int, iface *Interface) string {
	var b strings.Builder
	m, u := iface.CostBreakdown()
	w, h := iface.Bounds()
	fmt.Fprintf(&b, "workload: %s (%d queries)\n", name, queries)
	fmt.Fprintf(&b, "difftree: %s\n", iface.DiffTree())
	fmt.Fprintf(&b, "cost: total=%.4f M=%.4f U=%.4f widgets=%d bounds=%dx%d valid=%v\n",
		iface.Cost(), m, u, iface.NumWidgets(), w, h, iface.Valid())
	fmt.Fprintf(&b, "initial-cost: %.4f\n", iface.InitialCost())
	fmt.Fprintf(&b, "interface:\n%s", iface.ASCII())
	return b.String()
}

// goldenGen is the fixtures' search: 15 iterations, rollouts of depth 8,
// seed 1; extra options are applied after its own.
func goldenGen(extra ...Option) *Generator {
	return New(append([]Option{WithIterations(15), WithRolloutDepth(8), WithSeed(1)}, extra...)...)
}

func TestGoldenFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	for name, log := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			iface, err := goldenGen().GenerateFromASTs(context.Background(), log)
			if err != nil {
				t.Fatal(err)
			}
			got := renderFixture(name, len(log), iface)
			path := filepath.Join("testdata", "golden", name+".golden")

			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}

			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture %s (run `make golden` to create it): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("fixture %s drifted.\n--- got ---\n%s\n--- want ---\n%s\n"+
					"If the change is intentional, regenerate with `make golden` and review the diff.",
					path, got, want)
			}
		})
	}
}

// TestGoldenFixturesCacheInvariance: the fixtures must not depend on the
// memoization mode — the same fixture text is produced with the cache
// disabled. (Figure 1 only: it is the cheapest case and the equivalence is
// already covered per-strategy in internal/core.)
func TestGoldenFixturesCacheInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	cached, err := goldenGen().GenerateFromASTs(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := goldenGen(WithoutCache()).GenerateFromASTs(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderFixture("x", len(log), cached), renderFixture("x", len(log), uncached); a != b {
		t.Errorf("cache changed the end-to-end result:\n--- cached ---\n%s\n--- uncached ---\n%s", a, b)
	}
}
