package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/workload"
)

// TestTreeWorkersOneBitIdentical pins the determinism contract at the
// pipeline level: TreeWorkers 0 and 1 must produce the identical interface,
// cost, and search counters as each other — the sequential search is not
// allowed to drift when the tree-parallel machinery is present.
func TestTreeWorkersOneBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 8, RolloutDepth: 6, Seed: 7}

	seq, err := Generate(context.Background(), log, base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.TreeWorkers = 1
	got, err := Generate(context.Background(), log, one)
	if err != nil {
		t.Fatal(err)
	}

	if got.Cost.Total() != seq.Cost.Total() {
		t.Errorf("TreeWorkers=1 best cost %v, want %v", got.Cost.Total(), seq.Cost.Total())
	}
	if difftree.Hash(got.DiffTree) != difftree.Hash(seq.DiffTree) {
		t.Error("TreeWorkers=1 changed the best difftree")
	}
	if got.Stats.Iterations != seq.Stats.Iterations || got.Stats.Rollouts != seq.Stats.Rollouts ||
		got.Stats.Evals != seq.Stats.Evals || got.Stats.Expanded != seq.Stats.Expanded {
		t.Errorf("TreeWorkers=1 search counters diverged: %+v vs %+v", got.Stats, seq.Stats)
	}
	if got.Stats.TreeWorkers != 1 || seq.Stats.TreeWorkers != 1 {
		t.Errorf("sequential searches must report TreeWorkers=1, got %d and %d",
			got.Stats.TreeWorkers, seq.Stats.TreeWorkers)
	}
}

// TestTreeParallelTinyCacheStress: 8 tree workers share one search tree AND
// one deliberately tiny evicting transposition cache, so node expansion,
// leaf evaluation, and CLOCK eviction all race on every path. Under `go
// test -race` (CI) this is the shared-tree concurrency exercise on the real
// difftree domain. Whatever interleaving wins, the result must be a valid
// interface no worse than the unsearched initial state.
func TestTreeParallelTinyCacheStress(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	opt := Options{
		Iterations:   10,
		RolloutDepth: 6,
		Seed:         3,
		TreeWorkers:  8,
		Cache:        eval.NewCache(96),
	}
	res, err := Generate(context.Background(), log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Cost.Total(), 1) {
		t.Fatalf("no valid interface found: %+v", res.Cost)
	}
	if res.Cost.Total() > res.Initial.Total() {
		t.Errorf("tree-parallel search worse than the initial state: %v vs %v",
			res.Cost.Total(), res.Initial.Total())
	}
	if res.Stats.TreeWorkers != 8 {
		t.Errorf("TreeWorkers stat = %d, want 8", res.Stats.TreeWorkers)
	}
	if res.Stats.Iterations != 10 {
		t.Errorf("completed iterations = %d, want the shared budget of 10", res.Stats.Iterations)
	}
	if st := opt.Cache.Stats(); st.Entries > st.Capacity {
		t.Errorf("cache occupancy %d exceeds capacity %d", st.Entries, st.Capacity)
	}
}

// TestTreeParallelCancellation: tree-parallel generation keeps the anytime
// contract — a pre-cancelled context still yields an interface (the initial
// state) with Interrupted set.
func TestTreeParallelCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Generate(ctx, log, Options{Iterations: 1000, RolloutDepth: 6, Seed: 1, TreeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Interrupted {
		t.Error("cancelled tree-parallel generation must report Interrupted")
	}
	if res.DiffTree == nil {
		t.Error("cancelled generation must still return the best-so-far difftree")
	}
}
