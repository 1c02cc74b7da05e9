package difftree

import (
	"math/rand"
	"sync"
	"testing"
)

// walkByKind is the reference for KindCounts and NthOfKind: every node path
// grouped by kind, in pre-order, collected by a plain walk.
func walkByKind(root *Node) [4][]Path {
	var out [4][]Path
	WalkPath(root, func(n *Node, p Path) bool {
		out[n.Kind] = append(out[n.Kind], p.Clone())
		return true
	})
	return out
}

// checkNthOfKind asserts that root's kind counts and every NthOfKind path
// match the walk.
func checkNthOfKind(t testing.TB, root *Node) {
	t.Helper()
	want := walkByKind(root)
	counts := root.KindCounts()
	var buf [8]int
	for k := All; k <= Multi; k++ {
		if counts[k] != len(want[k]) {
			t.Fatalf("KindCounts()[%v] = %d, walk found %d\ntree %s", k, counts[k], len(want[k]), root)
		}
		for j, w := range want[k] {
			if got := NthOfKind(root, k, j, buf[:0]); got.String() != w.String() {
				t.Fatalf("NthOfKind(%v, %d) = %s, walk %s\ntree %s", k, j, got, w, root)
			}
		}
	}
}

// FuzzNthOfKind checks KindCounts and NthOfKind against a pre-order walk for
// every kind and index of random trees, before and after a copy-on-write
// edit that leaves the untouched subtrees' memos in place.
func FuzzNthOfKind(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(9), uint8(6))
	f.Add(int64(23), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		root := genDiff(rng, 1+int(depth%7))
		checkNthOfKind(t, root)
		var all []Path
		for _, ps := range walkByKind(root) {
			all = append(all, ps...)
		}
		next := ReplaceAt(root, all[rng.Intn(len(all))], genDiff(rng, 2))
		checkNthOfKind(t, next)
	})
}

func TestNthOfKindOutOfRangePanics(t *testing.T) {
	root := NewAny(Emptyn(), Emptyn())
	for _, j := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NthOfKind(Any, %d) on a one-Any tree did not panic", j)
				}
			}()
			NthOfKind(root, Any, j, nil)
		}()
	}
}

// TestKindCountsAndNthOfKindAllocs: on a memoized tree, reading the counts
// and finding a node into a caller buffer allocate nothing.
func TestKindCountsAndNthOfKindAllocs(t *testing.T) {
	root := genDiff(rand.New(rand.NewSource(3)), 6)
	counts := root.KindCounts()
	var buf [32]int
	if avg := testing.AllocsPerRun(100, func() { root.KindCounts() }); avg != 0 {
		t.Errorf("KindCounts on a memoized tree: %v allocs/op, want 0", avg)
	}
	j := counts[All] - 1
	if avg := testing.AllocsPerRun(100, func() { NthOfKind(root, All, j, buf[:0]) }); avg != 0 {
		t.Errorf("NthOfKind into a caller buffer: %v allocs/op, want 0", avg)
	}
}

// TestKindCountsConcurrent: workers sharing one unmemoized tree, as
// tree-parallel MCTS workers share states, all read exact counts and paths
// while the memo fills under them.
func TestKindCountsConcurrent(t *testing.T) {
	root := genDiff(rand.New(rand.NewSource(11)), 7)
	want := walkByKind(root)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [32]int
			for k := All; k <= Multi; k++ {
				if n := root.KindCounts()[k]; n != len(want[k]) {
					t.Errorf("KindCounts()[%v] = %d, walk found %d", k, n, len(want[k]))
					return
				}
				for j, p := range want[k] {
					if got := NthOfKind(root, k, j, buf[:0]); got.String() != p.String() {
						t.Errorf("NthOfKind(%v, %d) = %s, walk %s", k, j, got, p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
