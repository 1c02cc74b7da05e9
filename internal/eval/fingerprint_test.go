package eval

import (
	"testing"

	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// toggleRule is a parameterized rule: same Name for every instance, but the
// parameter decides whether it applies at all. Two rule sets built from
// different parameterizations must not share cache entries.
type toggleRule struct{ on bool }

func (r toggleRule) Name() string { return "Toggle" }

func (r toggleRule) Apply(n *difftree.Node) (*difftree.Node, bool) {
	if !r.on {
		return nil, false
	}
	return &difftree.Node{Kind: n.Kind, Label: n.Label, Value: n.Value, Children: n.Children}, true
}

// TestFingerprintCoversRuleParameters pins the cross-config isolation fix:
// the config fingerprint used to digest rules by Name() only, so two engines
// whose rule sets shared names but differed in parameterization mapped to
// the same cache keys — and the second engine served the first engine's
// memoized move sets. The fingerprint must cover full rule identity.
func TestFingerprintCoversRuleParameters(t *testing.T) {
	log := workload.PaperFigure1Log()
	base := Config{Log: log, Samples: 1, Seed: 1}

	on, off := base, base
	on.Rules = []rules.Rule{toggleRule{on: true}}
	off.Rules = []rules.Rule{toggleRule{on: false}}

	if fingerprint(on) == fingerprint(off) {
		t.Fatal("configs differing only in rule parameterization fingerprint equally")
	}

	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewCache(0)
	engOn := New(on, shared)
	engOff := New(off, shared)

	// Order matters for the regression: the enabled engine memoizes its
	// (non-empty) move set first; with colliding keys the disabled engine
	// would then serve that entry instead of its own empty answer.
	if ms := engOn.Moves(init); len(ms) == 0 {
		t.Fatal("enabled toggle rule produced no moves; the collision is not exercised")
	}
	if ms := engOff.Moves(init); len(ms) != 0 {
		t.Errorf("disabled-rule engine served %d moves from the enabled engine's cache entry", len(ms))
	}
}

// TestSharedCodeTablesDecodeEachRuleSet: engines with different rule sets
// on one cache encode against the cache's one path table, and each
// decodes its own rule names, from the lists it builds and from the ones it
// reads back; engines with one configuration read each other's lists and
// share each path.
func TestSharedCodeTablesDecodeEachRuleSet(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewCache(0)
	toggle := New(Config{Log: log, Samples: 1, Seed: 1, Rules: []rules.Rule{toggleRule{on: true}}}, shared)
	all := New(Config{Log: log, Samples: 1, Seed: 1, Rules: rules.All()}, shared)
	if toggle.paths() != shared.paths.Load() || all.paths() != shared.paths.Load() {
		t.Fatal("an engine on a cache does not encode against the cache's path table")
	}
	oracle := rules.Moves(init, log, rules.All())
	for pass := 0; pass < 2; pass++ { // a miss, then a cache hit
		if got := all.Moves(init); !sameMoves(got, oracle) {
			t.Fatalf("pass %d: built-in engine Moves = %v, oracle %v", pass, got, oracle)
		}
		got := toggle.Moves(init)
		if len(got) == 0 {
			t.Fatalf("pass %d: the toggle engine has no move", pass)
		}
		for _, m := range got {
			if m.Rule != "Toggle" {
				t.Fatalf("pass %d: the toggle engine decoded %s", pass, m)
			}
		}
	}
	twin := New(all.cfg, shared)
	misses := shared.Stats().Misses
	twin.Moves(init)
	if shared.Stats().Misses != misses {
		t.Fatal("an engine with the same configuration did not read the cached list")
	}
	reseeded := all.cfg
	reseeded.Seed = 2 // another fingerprint: its own entries, built afresh
	got := New(reseeded, shared).Moves(init)
	if shared.Stats().Misses == misses {
		t.Fatal("the reseeded engine read another configuration's list")
	}
	for i, m := range all.Moves(init) {
		if len(m.Path) > 0 && &m.Path[0] != &got[i].Path[0] {
			t.Fatalf("%s: two engines on one cache hold their own copies of a path", m)
		}
	}
}
