package eval

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// sizeCapFor mirrors search.SizeCap (importing internal/search here would
// be an import cycle: search uses eval).
func sizeCapFor(init *difftree.Node) int {
	if cap := 4 * init.Size(); cap > 64 {
		return cap
	}
	return 64
}

func figure1Engine(t *testing.T, cache *Cache) *Engine {
	t.Helper()
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Log:     log,
		Model:   cost.Default(layout.Wide),
		Samples: 3,
		Rules:   rules.All(),
		SizeCap: sizeCapFor(init),
		Seed:    1,
	}, cache)
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.Cost(42); ok {
		t.Fatal("empty cache hit")
	}
	c.SetCost(42, 3.5)
	if v, ok := c.Cost(42); !ok || v != 3.5 {
		t.Fatalf("Cost = %v, %v", v, ok)
	}
	c.SetLegal(42, true)
	c.SetLegal(43, false)
	if v, ok := c.Legal(42); !ok || !v {
		t.Fatal("legal verdict lost")
	}
	if v, ok := c.Legal(43); !ok || v {
		t.Fatal("illegal verdict lost")
	}
	ms := []rules.Move{{Rule: "Unwrap", Path: difftree.Path{0}}}
	c.SetMoves(42, ms)
	got, ok := c.Moves(42)
	if !ok || len(got) != 1 || got[0].Rule != "Unwrap" {
		t.Fatalf("Moves = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.HitRate(); r <= 0 || r >= 1 {
		t.Fatalf("hit rate = %f", r)
	}
}

// TestCacheCapEvicts: a full shard admits new states by evicting the CLOCK
// victim instead of refusing the insert.
func TestCacheCapEvicts(t *testing.T) {
	c := NewCache(shardCount) // one entry per shard
	// Fill shard 0 (keys that are multiples of shardCount land in shard 0).
	c.SetCost(0*shardCount, 1)
	c.SetCost(1*shardCount, 2) // same shard, over cap: evicts key 0
	if _, ok := c.Cost(1 * shardCount); !ok {
		t.Fatal("over-cap insert was refused instead of evicting")
	}
	if _, ok := c.Cost(0 * shardCount); ok {
		t.Fatal("CLOCK victim survived a full-shard insert")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	c.SetLegal(1*shardCount, true) // update of resident entry lands in place
	if v, ok := c.Legal(1 * shardCount); !ok || !v {
		t.Fatal("update to resident entry lost")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (update must not insert)", st.Entries)
	}
}

// TestCacheRace hammers one shared cache from 8 workers with overlapping
// keys and all three entry aspects; run under `go test -race` (CI does) it
// doubles as the data-race exercise for the shard locking.
func TestCacheRace(t *testing.T) {
	c := NewCache(1 << 12)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := uint64(i % 257) // heavy key overlap across workers
				switch i % 5 {
				case 0:
					c.SetCost(key, float64(key))
				case 1:
					if v, ok := c.Cost(key); ok && v != float64(key) {
						t.Errorf("worker %d: cost %v for key %d", w, v, key)
					}
				case 2:
					c.SetLegal(key, key%2 == 0)
				case 3:
					c.SetMoves(key, []rules.Move{{Rule: "Unwrap"}})
				case 4:
					if ms, ok := c.Moves(key); ok && len(ms) != 1 {
						t.Errorf("worker %d: moves %v for key %d", w, ms, key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses == 0 {
		t.Error("no traffic recorded")
	}
}

// TestEngineDeterministicAndShared: 8 workers hammering one shared cache
// through real engines must observe exactly the values an uncached engine
// computes — state evaluation is a pure function of (config, state), so a
// cache hit is indistinguishable from a recompute.
func TestEngineDeterministicAndShared(t *testing.T) {
	ref := figure1Engine(t, nil) // uncached reference
	shared := NewCache(0)

	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	states := []*difftree.Node{init}
	for _, next := range ref.Neighbors(init) {
		states = append(states, next)
	}
	if len(states) < 3 {
		t.Fatalf("too few states to exercise: %d", len(states))
	}

	wantCost := make([]float64, len(states))
	wantMoves := make([]int, len(states))
	for i, s := range states {
		wantCost[i] = ref.StateCost(s)
		wantMoves[i] = len(ref.Moves(s))
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := figure1Engine(t, shared)
			for rep := 0; rep < 3; rep++ {
				for i, s := range states {
					if c := eng.StateCost(s); c != wantCost[i] {
						t.Errorf("worker %d: state %d cost %v, want %v", w, i, c, wantCost[i])
					}
					if n := len(eng.Moves(s)); n != wantMoves[i] {
						t.Errorf("worker %d: state %d moves %d, want %d", w, i, n, wantMoves[i])
					}
					if !eng.LegalState(s) {
						t.Errorf("worker %d: state %d illegal", w, i)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := shared.Stats()
	if st.Hits == 0 {
		t.Error("shared cache saw no hits across 8 workers")
	}
	if st.Entries == 0 {
		t.Error("shared cache stayed empty")
	}
}

// TestEngineFingerprintIsolation: engines with different configs sharing
// one cache must not serve each other's entries.
// TestSampledCost: the reward primitive scores the initial state finitely
// and, under one seed, deterministically.
func TestSampledCost(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, _ := difftree.Initial(log)
	model := cost.Default(layout.Wide)
	c := SampledCost(init, log, model, 3, 1)
	if math.IsInf(c, 1) || c <= 0 {
		t.Errorf("initial state cost = %f", c)
	}
	if c2 := SampledCost(init, log, model, 3, 1); c != c2 {
		t.Error("SampledCost not deterministic under a fixed seed")
	}
}

// TestStateCostUnplannedAllocs: a state without a widget plan (most states
// a search scores) draws no assignment, so an uncached StateCost of it must
// allocate no more than the assign.BuildPlan and difftree.Hash it runs — in
// particular, it must not seed a sampling generator.
func TestStateCostUnplannedAllocs(t *testing.T) {
	eng := figure1Engine(t, nil)
	init, err := difftree.Initial(eng.cfg.Log)
	if err != nil {
		t.Fatal(err)
	}
	var d *difftree.Node
	frontier := []*difftree.Node{init}
	for len(frontier) > 0 && d == nil {
		var next []*difftree.Node
		for _, s := range frontier {
			if _, err := assign.BuildPlan(s); errors.Is(err, assign.ErrNoWidget) {
				d = s
				break
			}
			next = append(next, eng.Neighbors(s)...)
		}
		frontier = next
	}
	if d == nil {
		t.Fatal("no state without a widget plan within reach")
	}
	if c := eng.StateCost(d); !math.IsInf(c, 1) {
		t.Fatalf("unplanned state cost %v, want +Inf", c)
	}
	if testutil.Race {
		t.Skip("allocation counts vary under the race detector, which drops pooled items")
	}
	want := testing.AllocsPerRun(20, func() {
		_, _ = assign.BuildPlan(d)
		difftree.Hash(d)
	})
	if got := testing.AllocsPerRun(20, func() { eng.StateCost(d) }); got > want {
		t.Errorf("StateCost of an unplanned state: %v allocs, BuildPlan+Hash alone %v", got, want)
	}
}

func TestEngineFingerprintIsolation(t *testing.T) {
	shared := NewCache(0)
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *Engine {
		return New(Config{
			Log: log, Model: cost.Default(layout.Wide), Samples: 3,
			Rules: rules.All(), SizeCap: sizeCapFor(init), Seed: seed,
		}, shared)
	}
	a, b := mk(1), mk(2)
	ca, cb := a.StateCost(init), b.StateCost(init)
	if math.IsInf(ca, 1) || math.IsInf(cb, 1) {
		t.Fatal("initial state must have finite cost")
	}
	// Same state, different eval seeds: the sampled costs are allowed to
	// coincide numerically, but each engine must recompute rather than hit
	// the other's entry — observable via the entry count.
	if st := shared.Stats(); st.Entries < 2 {
		t.Errorf("want separate entries per fingerprint, got %d", st.Entries)
	}
	if got := a.StateCost(init); got != ca {
		t.Errorf("engine a flapped: %v then %v", ca, got)
	}
}

// TestCacheReset: Reset returns the cache to its pristine state and is
// followed by correct recomputation.
func TestCacheReset(t *testing.T) {
	c := NewCache(0)
	c.SetCost(1, 2.5)
	c.SetLegal(2, true)
	c.Cost(1)
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
	if _, ok := c.Cost(1); ok {
		t.Fatal("entry survived Reset")
	}
	c.SetCost(1, 2.5)
	if v, ok := c.Cost(1); !ok || v != 2.5 {
		t.Fatal("cache unusable after Reset")
	}
}
