package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// uniformWalk takes a seeded UniformMove walk of up to steps steps from
// init and returns the move list of every state it visits.
func uniformWalk(eng *Engine, init *difftree.Node, seed int64, steps int) [][]rules.Move {
	rng := rand.New(rand.NewSource(seed))
	var out [][]rules.Move
	d := init
	for i := 0; i <= steps; i++ {
		out = append(out, eng.Moves(d))
		next, ok := eng.UniformMove(d, rng)
		if !ok {
			break
		}
		d = next
	}
	return out
}

// TestMoveCodesConcurrentEngines runs 4 engines, made concurrently on one
// cache, that intern paths into its path table at once: two configurations
// (rule orders and seeds differ), two engines each, so the engines of one
// configuration race to build and to read the same lists. Every walk must
// decode the move lists an uncached engine of its configuration lists
// sequentially. It runs once on a cache's own table and once on a table of
// 64 paths, which the engines fill and rotate while the others read. Under
// -race this is the data-race exercise for the path tables.
func TestMoveCodesConcurrentEngines(t *testing.T) {
	const workers, steps = 4, 24
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 2)
	want := make([][][]rules.Move, len(cfgs))
	for i := range cfgs {
		set := rules.All()
		if i == 1 {
			slices.Reverse(set)
		}
		cfgs[i] = Config{Log: log, Rules: set, SizeCap: sizeCapFor(init), Seed: int64(i + 1)}
		want[i] = uniformWalk(New(cfgs[i], nil), init, int64(i+1), steps)
	}
	for _, limit := range []int{0, 64} {
		cache := NewCache(0)
		first := cache.paths.Load()
		if limit > 0 {
			first = newPathTable(limit)
			cache.paths.Store(first)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := w % len(cfgs)
				eng := New(cfgs[c], cache)
				for round := 0; round < 2; round++ {
					got := uniformWalk(eng, init, int64(c+1), steps)
					if len(got) != len(want[c]) {
						errs[w] = fmt.Errorf("limit %d worker %d round %d: %d states, sequential %d", limit, w, round, len(got), len(want[c]))
						return
					}
					for i := range got {
						if !sameMoves(got[i], want[c][i]) {
							errs[w] = fmt.Errorf("limit %d worker %d round %d step %d: Moves = %v, sequential %v", limit, w, round, i, got[i], want[c][i])
							return
						}
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
		if rotated := cache.paths.Load() != first; rotated != (limit > 0) {
			t.Errorf("limit %d: path table rotated = %v", limit, rotated)
		}
	}
}

// TestCodeTablesConcurrentIntern interns one set of paths, several path
// chunks' worth, from 4 goroutines in different orders at once, each
// decoding its codes, some of them ids another goroutine added, while the
// chunk directory and the index grow. Every path must get one id and
// decode to itself.
func TestCodeTablesConcurrentIntern(t *testing.T) {
	const workers, n = 4, 3 << pathChunkBits
	set := rules.All()
	moves := make([]rules.Move, n)
	for i := range moves {
		moves[i] = rules.Move{Rule: set[i%3].Name(), Path: difftree.Path{i % 7, i / 7, i % 5}}
	}
	tab := newPathTable(minPathLimit)
	var wg sync.WaitGroup
	codes := make([][]uint32, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(n)
			codes[w] = make([]uint32, n)
			for _, i := range order {
				c, ok := tab.encodeMoves(moves[i : i+1])
				if !ok {
					errs[w] = fmt.Errorf("worker %d: %s does not fit", w, moves[i])
					return
				}
				if got := tab.move(c[0]); got.String() != moves[i].String() {
					errs[w] = fmt.Errorf("worker %d: %s decodes to %s", w, moves[i], got)
					return
				}
				codes[w][i] = c[0]
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w < workers; w++ {
		if !slices.Equal(codes[w], codes[0]) {
			t.Fatalf("workers 0 and %d got different codes for one move list", w)
		}
	}
	if tab.n != n {
		t.Fatalf("%d paths interned, want %d", tab.n, n)
	}
}

// TestPathTableRotates walks SDSS on a cached and an uncached engine whose
// path tables hold 32 paths, fewer than a few states' lists name. A full
// table is replaced by an empty one, so the table in use never holds more
// than its limit plus one list; every list, built or read back, must equal
// the oracle's; and a list handed out before a rotation keeps decoding
// against the table it came with.
func TestPathTableRotates(t *testing.T) {
	const limit, steps = 32, 16
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*Cache{nil, NewCache(0)} {
		eng := New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, cache)
		first := newPathTable(limit)
		if cache != nil {
			cache.paths.Store(first)
		} else {
			eng.ownPaths.Store(first)
		}
		codes, paths := eng.moves(init, false)
		held := paths.decode(codes)
		longest := 0
		for round := 0; round < 2; round++ { // misses, then lists read back
			rng := rand.New(rand.NewSource(1))
			d := init
			for step := 0; step < steps; step++ {
				got := eng.Moves(d)
				if want := rules.Moves(d, log, rules.All()); !sameMoves(got, want) {
					t.Fatalf("cached %v round %d step %d: Moves = %v, oracle %v", eng.Enabled(), round, step, got, want)
				}
				longest = max(longest, len(got))
				if n := eng.paths().n; n > limit+longest {
					t.Fatalf("cached %v: the table holds %d paths, limit %d", eng.Enabled(), n, limit)
				}
				next, ok := eng.UniformMove(d, rng)
				if !ok {
					break
				}
				d = next
			}
		}
		if eng.paths() == first {
			t.Fatalf("cached %v: the path table never rotated", eng.Enabled())
		}
		if !sameMoves(paths.decode(codes), held) {
			t.Fatalf("cached %v: a list handed out before a rotation decodes differently", eng.Enabled())
		}
	}
}
