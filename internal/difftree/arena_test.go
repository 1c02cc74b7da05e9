package difftree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// TestQuickSpineArenaReplaceAtEquivalence: the arena-backed ReplaceAt builds
// trees structurally identical (and hash-identical) to the heap ReplaceAt,
// across Resets that recycle previous spines.
func TestQuickSpineArenaReplaceAtEquivalence(t *testing.T) {
	arena := &SpineArena{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := genDiff(rng, 4)
		var paths []Path
		WalkPath(root, func(_ *Node, p Path) bool {
			paths = append(paths, p.Clone())
			return true
		})

		// Build several candidates from one arena generation, checking each
		// against the heap version before the next overwrites nothing (spines
		// are bump-allocated, so candidates within a generation coexist).
		arena.Reset()
		for try := 0; try < 4; try++ {
			p := paths[rng.Intn(len(paths))]
			repl := genDiff(rng, 2)
			got := arena.ReplaceAt(root, p, repl)
			want := ReplaceAt(root, p, repl)
			if (got == nil) != (want == nil) {
				t.Logf("nil disagreement at %s", p)
				return false
			}
			if got == nil {
				continue
			}
			if !Equal(got, want) {
				t.Logf("arena tree differs at %s", p)
				return false
			}
			if Hash(got) != Hash(rebuild(want)) {
				t.Logf("arena hash differs at %s", p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(71, 150)); err != nil {
		t.Fatal(err)
	}
}

// TestSpineArenaResetRecycles: after Reset the arena hands out the same
// backing nodes again with cleanly reset hash, kind-count and validity
// memos.
func TestSpineArenaResetRecycles(t *testing.T) {
	arena := &SpineArena{}
	rng := rand.New(rand.NewSource(5))
	root := genDiff(rng, 4)
	repl := genDiff(rng, 2)
	p := Path{0}
	first := arena.ReplaceAt(root, p, repl)
	if first == nil {
		t.Fatal("replace failed")
	}
	Hash(first) // memoize on the arena node
	first.KindCounts()
	first.valid.Store(true)

	arena.Reset()
	repl2 := &Node{Kind: Opt} // invalid: OPT without a child
	second := arena.ReplaceAt(root, p, repl2)
	if second != first {
		t.Fatalf("expected the arena to recycle the spine node: %p vs %p", second, first)
	}
	if got, want := Hash(second), Hash(rebuild(second)); got != want {
		t.Fatalf("stale hash memo survived Reset: %x want %x", got, want)
	}
	if got, want := second.KindCounts(), rebuild(second).KindCounts(); got != want {
		t.Fatalf("stale kind-count memo survived Reset: %v want %v", got, want)
	}
	if ValidEdit(second, nil) {
		t.Fatal("stale validity memo survived Reset")
	}
}
