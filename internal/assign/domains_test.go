package assign_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/workload"
)

// checkPlanDomains asserts that every widget of every widget tree the plan
// for d materializes — First, Random draws and Enumerate — carries the
// domain DomainOf computes afresh for its choice node.
func checkPlanDomains(t *testing.T, what string, d *difftree.Node) {
	t.Helper()
	plan, err := assign.BuildPlan(d)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	parents := map[*difftree.Node]*difftree.Node{}
	difftree.WalkPath(d, func(n *difftree.Node, _ difftree.Path) bool {
		for _, c := range n.Children {
			parents[c] = n
		}
		return true
	})
	widgets := 0
	check := func(how string, ui *layout.Node) {
		t.Helper()
		for _, w := range ui.Widgets() {
			if want := assign.DomainOf(w.Choice, parents[w.Choice]); !reflect.DeepEqual(w.Domain, want) {
				t.Fatalf("%s: %s widget for %s has domain %+v, DomainOf %+v", what, how, w.Choice, w.Domain, want)
			}
			widgets++
		}
	}
	check("First", plan.First())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		check("Random", plan.Random(rng))
	}
	plan.Enumerate(200, func(ui *layout.Node) bool {
		check("Enumerate", ui)
		return true
	})
	if d.HasChoice() && widgets == 0 {
		t.Fatalf("%s: no widget checked", what)
	}
}

// TestPlanDomainsMatchDomainOf checks the domains a plan computes once and
// shares across its widget trees against DomainOf, on the paper's Figure 4
// tree and on the SDSS log's initial state and best states found by short
// searches.
func TestPlanDomainsMatchDomainOf(t *testing.T) {
	checkPlanDomains(t, "figure 4", assign.Figure4Tree())
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanDomains(t, "sdss initial", init)
	for seed := int64(1); seed <= 3; seed++ {
		res, err := core.Generate(context.Background(), log, core.Options{Iterations: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkPlanDomains(t, "sdss best", res.DiffTree)
	}
}
