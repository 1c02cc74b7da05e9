package search

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/rules"
	"repro/internal/workload"
)

// TestMovesTwiceIdentical: enumerating the same state twice must return
// equal move lists — in particular, the first enumeration must not have
// corrupted any state the second depends on. The engine is uncached, so
// both calls enumerate from scratch, the second reusing the first's pooled
// scratch space.
func TestMovesTwiceIdentical(t *testing.T) {
	log := workload.PaperFigure1Log()
	init, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	eng := eval.New(eval.Config{Log: log, Rules: rules.All(), SizeCap: SizeCap(init)}, nil)
	a := eng.Moves(init)
	b := eng.Moves(init)
	if len(a) == 0 {
		t.Fatal("no moves at the initial state")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("moves not stable across calls: %d vs %d moves", len(a), len(b))
	}
}

// TestSelectBestWidthOrdering covers the beam's partial selection: the
// survivors must be exactly the width lowest-cost candidates, in ascending
// (cost, hash) order, independent of input permutation — including ties.
func TestSelectBestWidthOrdering(t *testing.T) {
	base := []scored{
		{c: 3.0, h: 10}, {c: 1.0, h: 40}, {c: 2.0, h: 20}, {c: 1.0, h: 30},
		{c: 5.0, h: 50}, {c: 2.0, h: 60}, {c: 0.5, h: 70},
	}
	want := []scored{{c: 0.5, h: 70}, {c: 1.0, h: 30}, {c: 1.0, h: 40}, {c: 2.0, h: 20}}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		in := make([]scored, len(base))
		copy(in, base)
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		got := selectBest(in, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: selectBest = %+v, want %+v", trial, got, want)
		}
	}

	if got := selectBest([]scored{{c: 1, h: 1}}, 4); len(got) != 1 {
		t.Errorf("width larger than input must keep everything, got %d", len(got))
	}
	if got := selectBest(nil, 4); len(got) != 0 {
		t.Errorf("empty input must stay empty, got %d", len(got))
	}
}
