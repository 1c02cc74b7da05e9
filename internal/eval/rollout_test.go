package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// poolMove is the rollout step as it was drawn from materialized per-kind
// path pools, probed with the full LegalState, and with a fallback that
// picks from the applied Neighbors list: the reference RandomMove must
// reproduce draw for draw.
func poolMove(eng *Engine, cur *difftree.Node, rng *rand.Rand) (*difftree.Node, bool) {
	set := eng.cfg.Rules
	byKind := eng.PathPools(cur)
	for i := 0; i < 48; i++ {
		r := set[rng.Intn(len(set))]
		kinds := rules.MatchKinds[r.Name()]
		total := 0
		for k := difftree.All; k <= difftree.Multi; k++ {
			if kinds == nil || kinds[k] {
				total += len(byKind[k])
			}
		}
		if total == 0 {
			continue
		}
		idx := rng.Intn(total)
		var p difftree.Path
		for k := difftree.All; k <= difftree.Multi; k++ {
			if kinds != nil && !kinds[k] {
				continue
			}
			if idx < len(byKind[k]) {
				p = byKind[k][idx]
				break
			}
			idx -= len(byKind[k])
		}
		next, ok := rules.Candidate(cur, p, r)
		if !ok || !eng.LegalState(next) {
			continue
		}
		return next, true
	}
	ns := eng.Neighbors(cur)
	if len(ns) == 0 {
		return nil, false
	}
	return ns[rng.Intn(len(ns))], true
}

// rolloutEngine builds an engine over log with the search's rule set and
// size cap, and returns it with log's initial state.
func rolloutEngine(t testing.TB, log []*ast.Node, cache *Cache) (*Engine, *difftree.Node) {
	t.Helper()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, cache), init
}

// TestRandomMoveMatchesPoolDraw replays RandomMove beside poolMove on a twin
// engine, on twin rng streams over seeded rollouts, cached and uncached:
// every step must land on the same state, and the streams must stay in
// lockstep. That pins both the pool-free draw and the rollout probe
// (legalMove, which skips the re-match for widening rules). Every state
// handed to RandomMove is checked against its precondition: it is legal.
func TestRandomMoveMatchesPoolDraw(t *testing.T) {
	logs := []struct {
		name string
		log  []*ast.Node
	}{
		{"figure1", workload.PaperFigure1Log()},
		{"sdss", workload.SDSSLog()},
		{"random-join-6", workload.RandomJoinLog(rand.New(rand.NewSource(5)), 6)},
	}
	for _, c := range logs {
		for _, memo := range []bool{true, false} {
			newCache := func() *Cache {
				if memo {
					return NewCache(0)
				}
				return nil
			}
			eng, init := rolloutEngine(t, c.log, newCache())
			twin, _ := rolloutEngine(t, c.log, newCache())
			oracle, _ := rolloutEngine(t, c.log, nil)
			steps := 0
			for seed := int64(1); seed <= 12; seed++ {
				rngOld := rand.New(rand.NewSource(seed))
				rngNew := rand.New(rand.NewSource(seed))
				cur := init
				for step := 0; step < 40; step++ {
					if !oracle.LegalState(cur) {
						t.Fatalf("%s memo=%v seed %d step %d: rollout state is not legal", c.name, memo, seed, step)
					}
					want, wok := poolMove(twin, cur, rngOld)
					got, gok := eng.RandomMove(cur, rngNew)
					if wok != gok {
						t.Fatalf("%s memo=%v seed %d step %d: ok = %v, pool draw %v", c.name, memo, seed, step, gok, wok)
					}
					if !gok {
						break
					}
					if h := difftree.Hash(got); h != difftree.Hash(want) {
						t.Fatalf("%s memo=%v seed %d step %d: state %x, pool draw %x", c.name, memo, seed, step, h, difftree.Hash(want))
					}
					if a, b := rngOld.Int63(), rngNew.Int63(); a != b {
						t.Fatalf("%s memo=%v seed %d step %d: rng streams diverged", c.name, memo, seed, step)
					}
					cur = got
					steps++
				}
			}
			if steps < 100 {
				t.Fatalf("%s memo=%v: only %d steps compared", c.name, memo, steps)
			}
		}
	}
}

// walk replays a seeded RandomMove walk of up to steps moves from init and
// returns the hashes of the states it visits.
func walk(eng *Engine, init *difftree.Node, seed int64, steps int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	cur := init
	for i := 0; i < steps; i++ {
		next, ok := eng.RandomMove(cur, rng)
		if !ok {
			break
		}
		cur = next
		out = append(out, difftree.Hash(cur))
	}
	return out
}

// TestRandomMoveSharedEngine runs seeded rollout walks from goroutines
// sharing one engine on a tiny, constantly evicting cache, the way tree
// workers share their engine, its probes, its match memo and its pooled
// spine arenas. Each walk must equal the sequential walk for its seed on an
// uncached engine, which re-matches without the memo.
// Under -race this is also the data-race exercise for the rollout step.
func TestRandomMoveSharedEngine(t *testing.T) {
	const seeds, steps, workers = 8, 40, 4
	log := workload.SDSSLog()
	ref, init := rolloutEngine(t, log, nil)
	want := make([][]uint64, seeds)
	for s := range want {
		if want[s] = walk(ref, init, int64(s+1), steps); len(want[s]) == 0 {
			t.Fatalf("seed %d: the walk took no step", s+1)
		}
	}
	cache := NewCache(shardCount) // one entry per shard
	shared, _ := rolloutEngine(t, log, cache)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < seeds; i++ {
				s := (i + w) % seeds
				if got := walk(shared, init, int64(s+1), steps); !slices.Equal(got, want[s]) {
					errs[w] = fmt.Errorf("worker %d seed %d: walk %x, sequential %x", w, s+1, got, want[s])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Error("the shared cache evicted nothing; the walks never competed for it")
	}
	if shared.matches.Load() == nil {
		t.Error("the shared engine made no match memo; the walks never re-matched through it")
	}
}
