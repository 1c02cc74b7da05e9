package eval

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// checkAgainstPools asserts that d's kind counts and every stride-th
// NthOfKind path (and the last of each kind) equal the unmemoized PathPools
// reference.
func checkAgainstPools(t *testing.T, eng *Engine, d *difftree.Node, stride int, what string) {
	t.Helper()
	pools := eng.PathPools(d)
	counts := d.KindCounts()
	var buf [32]int
	for k := difftree.All; k <= difftree.Multi; k++ {
		if counts[k] != len(pools[k]) {
			t.Fatalf("%s: KindCounts()[%v] = %d, PathPools has %d", what, k, counts[k], len(pools[k]))
		}
		for j, want := range pools[k] {
			if j%stride != 0 && j != len(pools[k])-1 {
				continue
			}
			if got, _, _ := difftree.NthOfKind(d, k, j, buf[:0]); got.String() != want.String() {
				t.Fatalf("%s: NthOfKind(%v, %d) = %s, PathPools %s", what, k, j, got, want)
			}
		}
	}
}

// TestNthOfKindMatchesPathPools checks the rollout's pool-free draw against
// PathPools on seeded walks over the paper's logs, on every state and on
// arena-built candidates of it. The candidates reuse one arena across
// Resets, so a kind-count memo left on a recycled spine node would show.
func TestNthOfKindMatchesPathPools(t *testing.T) {
	cases := []struct {
		name string
		log  []*ast.Node
	}{
		{"figure1", workload.PaperFigure1Log()},
		{"sdss", workload.SDSSLog()},
		{"random-join-5", workload.RandomJoinLog(rand.New(rand.NewSource(7)), 5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			init, err := difftree.Initial(c.log)
			if err != nil {
				t.Fatal(err)
			}
			eng := New(Config{Log: c.log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, NewCache(0))
			var arena difftree.SpineArena
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				d := init
				for step := 0; step < 12; step++ {
					checkAgainstPools(t, eng, d, 1, "state")
					ms := eng.Moves(d)
					if len(ms) == 0 {
						break
					}
					for try := 0; try < 8; try++ {
						m := ms[rng.Intn(len(ms))]
						r, _ := rules.ByName(m.Rule)
						arena.Reset()
						next, ok := rules.CandidateArena(d, m.Path, r, &arena)
						if !ok {
							t.Fatalf("legal move %s does not apply", m)
						}
						checkAgainstPools(t, eng, next, 1, "arena candidate "+m.String())
					}
					next, err := rules.ApplyMove(d, ms[rng.Intn(len(ms))])
					if err != nil {
						t.Fatal(err)
					}
					d = next
				}
			}
		})
	}
	t.Run("beyond-packed-width", func(t *testing.T) {
		// 300 ALL nodes under each of 300 ANY alternatives: every ANY
		// subtree's counts are memoized, the root's ALL count (90,301) is
		// too wide for its packed field and is recounted exactly each time.
		alts := make([]*difftree.Node, 300)
		for i := range alts {
			leaves := make([]*difftree.Node, 299)
			for j := range leaves {
				leaves[j] = difftree.Emptyn()
			}
			alts[i] = difftree.NewAll(ast.KindAnd, "", leaves...)
		}
		d := difftree.NewAny(alts...)
		eng := New(Config{}, nil)
		checkAgainstPools(t, eng, d, 97, "wide tree")
		checkAgainstPools(t, eng, d, 89, "wide tree, second read")
	})
}
