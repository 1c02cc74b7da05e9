package mctsui

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// TestGoldenFigure6c locks the headline reproduction: SDSS queries 6-8 must
// produce the paper's simple interface — a TOP row-count picker (10, 100,
// 1000) plus the table picker — deterministically under the fixed seed.
func TestGoldenFigure6c(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	sub := workload.SDSSSubset(6, 8)
	srcs := make([]string, len(sub))
	for i, q := range sub {
		srcs[i] = sqlparser.Render(q)
	}
	iface, err := goldenGen().Generate(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	out := iface.ASCII()
	for _, want := range []string{
		"TOP 10", "TOP 100", "TOP 1000", // the paper's row-count picker
		"quasars", "stars", "galaxies", // the table variation in queries 6-8
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 6(c) interface missing %q:\n%s", want, out)
		}
	}
	if iface.NumWidgets() > 3 {
		t.Errorf("Figure 6(c) interface should be simple, got %d widgets:\n%s",
			iface.NumWidgets(), out)
	}
	// The WHERE clause is shared by all three queries: no widget for it.
	if strings.Contains(out, "BETWEEN") || strings.Contains(out, "Where") {
		t.Errorf("shared WHERE clause must not produce widgets:\n%s", out)
	}
	// Strictly simpler than the full-log interface (paper's point).
	full, err := goldenGen().Generate(context.Background(), workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	if iface.NumWidgets() >= full.NumWidgets() {
		t.Errorf("subset interface (%d widgets) should be simpler than full (%d)",
			iface.NumWidgets(), full.NumWidgets())
	}
	if iface.Cost() >= full.Cost() {
		t.Errorf("subset cost %.2f should undercut full cost %.2f", iface.Cost(), full.Cost())
	}
}

// TestGoldenWideScreenEnumerates locks Figure 6(a)'s shape: the wide screen
// prefers enumerating widgets (buttons/radio) over dropdowns for the
// projection and TOP variations.
func TestGoldenWideScreenEnumerates(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	iface, err := goldenGen().Generate(context.Background(), workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	out := iface.ASCII()
	if !strings.Contains(out, "buttons") && !strings.Contains(out, "radio") {
		t.Errorf("wide screen should enumerate options:\n%s", out)
	}
	for _, want := range []string{"objid", "count(*)", "TOP 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
