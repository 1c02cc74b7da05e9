package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// capMoves keeps the moves of d whose result fits the size cap: applied to
// rules.Moves, the full re-match reference for Engine.Moves.
func capMoves(d *difftree.Node, ms []rules.Move, sizeCap int) []rules.Move {
	var out []rules.Move
	for _, m := range ms {
		next, err := rules.ApplyMove(d, m)
		if err != nil {
			continue
		}
		if sizeCap <= 0 || next.Size() <= sizeCap {
			out = append(out, m)
		}
	}
	return out
}

func sameMoves(a, b []rules.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// checklegalMoves asserts, for a state d that is legal for eng, that the
// rollout probe Engine.legalMove agrees with the full re-match oracle on
// every (node, rule) candidate of d, that the spine-free widening verdict
// agrees with the size cap plus difftree.ValidEdit on the built candidate,
// and that a shaper's build-free verdict (legalShaped, which Moves uses)
// agrees with the widening verdict on the built replacement.
func checklegalMoves(t testing.TB, eng *Engine, d *difftree.Node, log []*ast.Node, what string) {
	t.Helper()
	difftree.WalkPath(d, func(n *difftree.Node, p difftree.Path) bool {
		var parent *difftree.Node
		if len(p) > 0 {
			parent = difftree.At(d, p[:len(p)-1])
		}
		for i, r := range eng.cfg.Rules {
			sub, ok := rules.Rewrite(n, parent, r)
			if s := eng.shapers[i]; s != nil {
				shaped, applies := eng.legalShaped(d, p, n, s)
				if applies != ok {
					t.Fatalf("%s: %s@%s: legalShaped applies %v, Rewrite %v\nstate %s", what, r.Name(), p, applies, ok, d)
				}
				if ok && shaped != eng.legalWidened(d, p, n, sub) {
					t.Fatalf("%s: %s@%s: legalShaped = %v, widening verdict on the built replacement %v\nstate %s",
						what, r.Name(), p, shaped, !shaped, d)
				}
			}
			if !ok {
				continue
			}
			next, ok := rules.Candidate(d, p, r)
			if !ok {
				t.Fatalf("%s: %s@%s rewrites but builds no candidate", what, r.Name(), p)
			}
			fits := eng.SizeCap() <= 0 || next.Size() <= eng.SizeCap()
			want := fits && rules.LegalState(next, log)
			if got := eng.legalMove(d, p, n, sub, i); got != want {
				t.Fatalf("%s: legalMove(%s@%s) = %v, oracle %v\nstate %s", what, r.Name(), p, got, want, d)
			}
			if !eng.widens[i] {
				continue
			}
			want = fits && difftree.ValidEdit(next, p)
			if got := eng.legalWidened(d, p, n, sub); got != want {
				t.Fatalf("%s: widening verdict for %s@%s = %v, size and ValidEdit on the candidate %v\nstate %s",
					what, r.Name(), p, got, want, d)
			}
		}
		return true
	})
}

// checkIncrementalWalk takes a seeded random walk of the given length over
// the size-capped legal moves for walkLog, from its initial state, and
// asserts at every state that Engine.Moves agrees with the oracle for
// checkLog — on a cached and an uncached engine, under the search's size cap
// and a tight one, both when the list is built and when it is decoded again
// (from the cache, on a cached engine) — and that Neighbors applies every
// move (the rollout
// fallback draws an index into Moves). At states legal for checkLog, the
// precondition of the rollout probe, legalMove must agree with the oracle
// on every candidate.
func checkIncrementalWalk(t testing.TB, walkLog, checkLog []*ast.Node, seed int64, steps int) {
	t.Helper()
	init, err := difftree.Initial(walkLog)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{sizeCapFor(init), init.Size() + 4}
	var engines []*Engine
	for _, sizeCap := range caps {
		for _, cache := range []*Cache{NewCache(0), nil} {
			engines = append(engines, New(Config{Log: checkLog, Rules: rules.All(), SizeCap: sizeCap}, cache))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	d := init
	for step := 0; ; step++ {
		oracle := rules.Moves(d, checkLog, rules.All())
		for i, eng := range engines {
			want := capMoves(d, oracle, eng.SizeCap())
			got := eng.Moves(d)
			if !sameMoves(got, want) {
				t.Fatalf("seed %d step %d engine %d (cap %d, cached %v): Moves = %v, oracle %v\nstate %s",
					seed, step, i, eng.SizeCap(), eng.Enabled(), got, want, d)
			}
			if again := eng.Moves(d); !sameMoves(again, want) {
				t.Fatalf("seed %d step %d engine %d (cached %v): the list decoded again = %v, oracle %v",
					seed, step, i, eng.Enabled(), again, want)
			}
			if n := len(eng.Neighbors(d)); n != len(got) {
				t.Fatalf("seed %d step %d engine %d: %d neighbors for %d moves", seed, step, i, n, len(got))
			}
			if eng.LegalState(d) {
				checklegalMoves(t, eng, d, checkLog, fmt.Sprintf("seed %d step %d engine %d", seed, step, i))
			}
		}
		walk := capMoves(d, rules.Moves(d, walkLog, rules.All()), caps[0])
		if step == steps || len(walk) == 0 {
			return
		}
		next, err := rules.ApplyMove(d, walk[rng.Intn(len(walk))])
		if err != nil {
			t.Fatal(err)
		}
		d = next
	}
}

func TestIncrementalMovesMatchOracle(t *testing.T) {
	cases := []struct {
		name  string
		log   []*ast.Node
		seeds int
		steps int
	}{
		{"figure1", workload.PaperFigure1Log(), 8, 16},
		{"sdss", workload.SDSSLog(), 4, 20},
		{"sdss-join", workload.SDSSJoinLog(), 4, 16},
		{"random-join-5", workload.RandomJoinLog(rand.New(rand.NewSource(7)), 5), 6, 16},
		{"random-join-8", workload.RandomJoinLog(rand.New(rand.NewSource(11)), 8), 4, 16},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(c.seeds); seed++ {
				checkIncrementalWalk(t, c.log, c.log, seed, c.steps)
			}
		})
	}
}

// TestIncrementalMovesUnexpressedQuery runs the engine over states that do
// not express its whole log: such a state is not legal, so every candidate,
// widening or not, must go through the full re-match, since a rewrite may
// make the missing query expressible.
func TestIncrementalMovesUnexpressedQuery(t *testing.T) {
	log := workload.PaperFigure1Log()
	for seed := int64(1); seed <= 4; seed++ {
		checkIncrementalWalk(t, log[:2], log, seed, 10)
	}
}

// FuzzIncrementalLegality differentially checks move enumeration and the
// rollout probe (legalMove) against the full re-match oracle on random
// walks over random multi-table logs.
func FuzzIncrementalLegality(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6))
	f.Add(int64(7), uint8(5), uint8(8))
	f.Add(int64(42), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, steps uint8) {
		log := workload.RandomJoinLog(rand.New(rand.NewSource(seed)), 1+int(n%6))
		checkIncrementalWalk(t, log, log, seed, int(steps%12))
	})
}

// TestWideningNullabilityFlip pins the one case where a widening rewrite's
// verdict needs the spine: MultiMerge on the Seq of ALL[MULTI[SEQ[a, b]]]
// yields SEQ[MULTI[ANY[a, b]]], which is nullable where the Seq was not, so
// the MULTI above it breaks its invariant although the replacement itself
// is valid. Moves, its build-free verdict (legalShaped) and the rollout
// probe must all reject it, as the full re-match oracle does.
func TestWideningNullabilityFlip(t *testing.T) {
	table := func(v string) *difftree.Node { return difftree.NewAll(ast.KindTable, v) }
	d := difftree.NewAll(ast.KindFrom, "",
		difftree.NewMulti(difftree.NewAll(ast.KindSeq, "", table("a"), table("b"))))
	log := []*ast.Node{ast.New(ast.KindFrom, "", ast.Leaf(ast.KindTable, "a"), ast.Leaf(ast.KindTable, "b"))}
	p := difftree.Path{0, 0}
	ri := -1
	for i, r := range rules.All() {
		if r.Name() == "MultiMerge" {
			ri = i
		}
	}
	r := rules.All()[ri]
	if !rules.Widens(r) {
		t.Fatal("MultiMerge no longer widens; the case does not reach the widening verdict")
	}
	n := difftree.At(d, p)
	sub, ok := rules.Rewrite(n, difftree.At(d, p[:len(p)-1]), r)
	if !ok {
		t.Fatalf("MultiMerge does not apply at %s of %s", p, d)
	}
	if difftree.Nullable(n) || !difftree.Nullable(sub) || difftree.Validate(sub) != nil {
		t.Fatalf("want a valid nullable replacement of a non-nullable node, got %s -> %s", n, sub)
	}
	next, _ := rules.Candidate(d, p, r)
	if rules.LegalState(next, log) {
		t.Fatalf("oracle accepts %s", next)
	}
	for _, cache := range []*Cache{NewCache(0), nil} {
		eng := New(Config{Log: log, Rules: rules.All()}, cache)
		if !eng.LegalState(d) {
			t.Fatalf("source state %s is not legal", d)
		}
		for _, m := range eng.Moves(d) {
			if m.Rule == "MultiMerge" && m.Path.String() == p.String() {
				t.Errorf("cached %v: Moves lists %s, whose result is invalid", eng.Enabled(), m)
			}
		}
		if eng.legalMove(d, p, n, sub, ri) {
			t.Errorf("cached %v: legalMove accepts MultiMerge@%s, whose result is invalid", eng.Enabled(), p)
		}
		if legal, applies := eng.legalShaped(d, p, n, eng.shapers[ri]); legal || !applies {
			t.Errorf("cached %v: legalShaped(MultiMerge@%s) = (%v, applies %v), want (false, true)", eng.Enabled(), p, legal, applies)
		}
	}
}

// TestMovesMissAllocs bounds the allocations of an uncached Moves miss on
// the initial SDSS state (63 moves from about 1000 kind-admitted tries).
// Before MultiMerge's verdict stopped building the replacement
// (MultiMerge.Shape), the miss made about 390 allocations; while the walk
// grew its own scratch and the list held rules.Move values, 83. The walk's
// scratch is now pooled and the kept list is one code slice, so what is
// left is that slice, the decoded list Moves returns, and the replacements
// of the other rules' matches.
func TestMovesMissAllocs(t *testing.T) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, nil)
	if n := len(eng.Moves(init)); n == 0 {
		t.Fatal("the initial SDSS state has no move")
	}
	if testutil.Race {
		t.Skip("allocation counts vary under the race detector, which drops pooled items")
	}
	const bound = 70
	if got := testing.AllocsPerRun(5, func() { eng.Moves(init) }); got > bound {
		t.Errorf("uncached Moves miss on the initial SDSS state: %v allocs, want at most %d", got, bound)
	}
}

// TestMovesMissDoesNotAliasEarlierList: a move list a miss returned stays
// as it was through later misses, on an uncached engine and on a cached one
// (which keeps the list). A list built in the walk's pooled scratch would be
// overwritten by the next walk, the bug class mctsvet's slicealias guards.
func TestMovesMissDoesNotAliasEarlierList(t *testing.T) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*Cache{nil, NewCache(0)} {
		eng := New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, cache)
		codes, tab := eng.moves(init, false)
		want := slices.Clone(codes)
		first := eng.Moves(init)
		wantFirst := slices.Clone(first)
		d := init
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 4; step++ {
			next, ok := eng.UniformMove(d, rng)
			if !ok {
				t.Fatal("walk stuck")
			}
			d = next
			eng.Moves(d) // a miss: a new walk over the pooled scratch
		}
		if !slices.Equal(codes, want) {
			t.Fatalf("cached %v: the first list's codes changed under later misses", eng.Enabled())
		}
		if !sameMoves(first, wantFirst) || !sameMoves(tab.decode(codes), wantFirst) {
			t.Fatalf("cached %v: the first list changed under later misses: %v, want %v", eng.Enabled(), first, wantFirst)
		}
	}
}

// TestMovesShareInternedPaths checks that the move lists an engine builds
// share one exactly sized copy of each path: along a walk, every move at a
// position another list also has a move at holds the same slice, and no
// path has spare capacity an append could write into.
func TestMovesShareInternedPaths(t *testing.T) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Log: log, Rules: rules.All(), SizeCap: sizeCapFor(init)}, NewCache(0))
	seen := map[string]*int{} // path -> its first element's address
	shared := 0
	rng := rand.New(rand.NewSource(1))
	d := init
	for step := 0; step < 12; step++ {
		for _, m := range eng.Moves(d) {
			if len(m.Path) != cap(m.Path) {
				t.Fatalf("step %d: %s has capacity %d beyond its length", step, m, cap(m.Path))
			}
			if len(m.Path) == 0 {
				continue
			}
			key := m.Path.String()
			if first, ok := seen[key]; !ok {
				seen[key] = &m.Path[0]
			} else if first != &m.Path[0] {
				t.Fatalf("step %d: %s holds its own copy of a path an earlier list holds", step, m)
			} else {
				shared++
			}
		}
		next, ok := eng.UniformMove(d, rng)
		if !ok {
			break
		}
		d = next
	}
	if shared == 0 {
		t.Fatal("no two lists had a move at one position; the walk shows nothing")
	}
}
