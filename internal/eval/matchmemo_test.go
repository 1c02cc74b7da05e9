package eval

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// checkMatchMemoWalk takes a seeded random walk over the size-capped legal
// moves of log (UniformMove of a cached engine) and, at every state, re-matches every (node, rule)
// candidate, legal or not, through one difftree.MatchMemo filled across the
// whole walk, as an engine's is. Each memoized ExpressibleAll must agree
// with the unmemoized one. It returns the number of candidates checked.
func checkMatchMemoWalk(t *testing.T, log []*ast.Node, seed int64, steps int) int {
	t.Helper()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	walker := New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, NewCache(0))
	memo := difftree.NewMatchMemo(log)
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	d := init
	for step := 0; ; step++ {
		difftree.WalkPath(d, func(_ *difftree.Node, p difftree.Path) bool {
			for _, r := range rules.All() {
				next, ok := rules.Candidate(d, p, r)
				if !ok {
					continue
				}
				want := difftree.ExpressibleAll(next, log)
				if got := memo.ExpressibleAll(next); got != want {
					t.Fatalf("seed %d step %d: %s@%s: memoized ExpressibleAll = %v, unmemoized %v\nstate %s",
						seed, step, r.Name(), p, got, want, d)
				}
				checked++
			}
			return true
		})
		next, ok := walker.UniformMove(d, rng)
		if step == steps || !ok {
			return checked
		}
		d = next
	}
}

// TestMatchMemoMatchesUnmemoized is the differential test of the match
// memo on the logs the search runs on: the SDSS log, the SDSS join session,
// and random multi-table logs.
func TestMatchMemoMatchesUnmemoized(t *testing.T) {
	cases := []struct {
		name  string
		log   []*ast.Node
		seeds int
		steps int
	}{
		{"sdss", workload.SDSSLog(), 1, 8},
		{"sdss-join", workload.SDSSJoinLog(), 1, 6},
		{"random-join-5", workload.RandomJoinLog(rand.New(rand.NewSource(7)), 5), 2, 6},
		{"random-join-8", workload.RandomJoinLog(rand.New(rand.NewSource(11)), 8), 1, 8},
	}
	if testing.Short() || testutil.Race {
		cases = cases[:1] // one goroutine: the race detector has nothing to find
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(c.seeds); seed++ {
				if n := checkMatchMemoWalk(t, c.log, seed, c.steps); n == 0 {
					t.Fatalf("seed %d: no candidate checked", seed)
				}
			}
		})
	}
}

// FuzzMatchMemo runs the memo differential on random walks over random
// multi-table logs.
func FuzzMatchMemo(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(5), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, steps uint8) {
		log := workload.RandomJoinLog(rand.New(rand.NewSource(seed)), 1+int(n%6))
		checkMatchMemoWalk(t, log, seed, int(steps%8))
	})
}

// TestUncachedEngineMakesNoMemo pins that the uncached engine, the no-memo
// reference, never makes a match memo, and that a cached one makes it on
// its first full re-match and not before.
func TestUncachedEngineMakesNoMemo(t *testing.T) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*Cache{nil, NewCache(0)} {
		eng := New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, cache)
		if eng.matches.Load() != nil {
			t.Fatalf("cached %v: New made a match memo", eng.Enabled())
		}
		eng.Moves(init)
		if got, want := eng.matches.Load() != nil, eng.Enabled(); got != want {
			t.Errorf("cached %v: match memo made %v after Moves, want %v", eng.Enabled(), got, want)
		}
	}
}
