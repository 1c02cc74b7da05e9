package experiments

import (
	"context"
	"strings"
	"testing"
)

// tiny returns a minimal-budget config so the smoke tests stay fast.
func tiny() Config { return Config{Iterations: 3, RolloutDepth: 4, Seed: 1} }

func TestNamedCoversDesignIndex(t *testing.T) {
	// Every experiment id cmd/experiments documents must resolve.
	ids := []string{
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
		"space", "budget", "baseline", "strategies",
		"ablation-c", "ablation-rollout", "scaling", "all",
	}
	for _, id := range ids {
		if _, ok := Named(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, ok := Named("nope"); ok {
		t.Error("unknown id should miss")
	}
}

func TestFigureExperimentsProduceInterfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	cfg := tiny()
	for name, f := range map[string]func(context.Context, Config) string{
		"fig6a": Fig6a, "fig6c": Fig6c,
	} {
		out := f(context.Background(), cfg)
		if !strings.Contains(out, "cost=") {
			t.Errorf("%s: no cost line:\n%s", name, out)
		}
		if !strings.Contains(out, "widgets=") {
			t.Errorf("%s: no widget count:\n%s", name, out)
		}
		if strings.Contains(out, "error:") {
			t.Errorf("%s failed:\n%s", name, out)
		}
	}
}

func TestSearchSpaceReport(t *testing.T) {
	out := SearchSpace(context.Background(), tiny())
	if !strings.Contains(out, "fanout=") || !strings.Contains(out, "random path") {
		t.Errorf("report incomplete:\n%s", out)
	}
}

func TestBaselineCompareReport(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	out := BaselineCompare(context.Background(), tiny())
	if !strings.Contains(out, "figure-1") || !strings.Contains(out, "sdss") {
		t.Errorf("rows missing:\n%s", out)
	}
}

func TestFig6dReport(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	out := Fig6d(context.Background(), tiny())
	if !strings.Contains(out, "random walk") || !strings.Contains(out, "searched") {
		t.Errorf("report incomplete:\n%s", out)
	}
}

func TestFig6eReport(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	out := Fig6e(context.Background(), tiny())
	if !strings.Contains(out, "SDSS-form-style") || !strings.Contains(out, "generated (MCTS)") {
		t.Errorf("report incomplete:\n%s", out)
	}
}
