package core

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// poolNeighbor is the rollout step as it was drawn from materialized
// per-kind path pools: the reference RandomNeighbor must reproduce draw for
// draw.
func poolNeighbor(d *domain, cur *difftree.Node, rng *rand.Rand) (*difftree.Node, bool) {
	byKind := d.eng.PathPools(cur)
	for i := 0; i < 48; i++ {
		r := d.ruleSet[rng.Intn(len(d.ruleSet))]
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
		if !ok || !d.eng.LegalState(next) {
			continue
		}
		return next, true
	}
	ms := d.eng.Moves(cur)
	if len(ms) == 0 {
		return nil, false
	}
	next, err := rules.ApplyMove(cur, ms[rng.Intn(len(ms))])
	return next, err == nil
}

// TestRandomNeighborMatchesPoolDraw replays the pool-based draw beside
// RandomNeighbor on twin rng streams over seeded rollouts, cached and
// uncached: every step must land on the same state, and the streams must
// stay in lockstep.
func TestRandomNeighborMatchesPoolDraw(t *testing.T) {
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
			opt := Options{DisableMemo: !memo}.withDefaults()
			init, err := difftree.Initial(c.log)
			if err != nil {
				t.Fatal(err)
			}
			model := cost.Model{NavUnit: opt.NavUnit, Screen: opt.Screen}
			d := newDomain(c.log, opt, newEngine(c.log, init, model, opt))
			steps := 0
			for seed := int64(1); seed <= 12; seed++ {
				rngOld := rand.New(rand.NewSource(seed))
				rngNew := rand.New(rand.NewSource(seed))
				cur := init
				for step := 0; step < 40; step++ {
					want, wok := poolNeighbor(d, cur, rngOld)
					got, gok := d.RandomNeighbor(state{d: cur, h: difftree.Hash(cur)}, rngNew)
					if wok != gok {
						t.Fatalf("%s memo=%v seed %d step %d: ok = %v, pool draw %v", c.name, memo, seed, step, gok, wok)
					}
					if !gok {
						break
					}
					if h := got.Hash(); h != difftree.Hash(want) {
						t.Fatalf("%s memo=%v seed %d step %d: state %x, pool draw %x", c.name, memo, seed, step, h, difftree.Hash(want))
					}
					if a, b := rngOld.Int63(), rngNew.Int63(); a != b {
						t.Fatalf("%s memo=%v seed %d step %d: rng streams diverged", c.name, memo, seed, step)
					}
					cur = got.(state).d
					steps++
				}
			}
			if steps < 100 {
				t.Fatalf("%s memo=%v: only %d steps compared", c.name, memo, steps)
			}
		}
	}
}
