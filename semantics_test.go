package mctsui

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func TestValidateSemanticsSDSS(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), workload.SDSSLogSQL())
	if err != nil {
		t.Fatal(err)
	}
	db := engine.SDSSDB(100, 1)
	rep := iface.ValidateSemantics(db, 50)
	if rep.Checked == 0 {
		t.Fatal("nothing checked")
	}
	// The SDSS interface factors simple clauses; everything it expresses
	// should execute against the catalog.
	if rep.Fraction() < 0.9 {
		t.Errorf("semantic fraction %.2f (%d/%d); errors: %v",
			rep.Fraction(), rep.Executable, rep.Checked, rep.Errors)
	}
}

func TestValidateSemanticsCatchesUnknownTable(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), []string{
		"select a from known",
		"select a from unknown",
	})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	if err := db.Add(&engine.Table{Name: "known", Cols: []*engine.Column{
		{Name: "a", Type: engine.Int, Ints: []int64{1}},
	}}); err != nil {
		t.Fatal(err)
	}
	rep := iface.ValidateSemantics(db, 10)
	if rep.Executable >= rep.Checked {
		t.Errorf("expected some queries to fail on the missing table: %+v", rep)
	}
	if len(rep.Errors) == 0 {
		t.Error("errors should be reported")
	}
	if rep.Fraction() >= 1 {
		t.Error("fraction must drop below 1")
	}
}

func TestSemanticReportEmptyFraction(t *testing.T) {
	if (SemanticReport{}).Fraction() != 1 {
		t.Error("empty report fraction should be 1")
	}
}

func TestPlausibility(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	sess := iface.NewSession()
	// Every log query has plausibility 1 (all its pairs were observed).
	for _, src := range paperLog {
		if err := sess.LoadQuery(src); err != nil {
			t.Fatal(err)
		}
		if p := sess.Plausibility(); p != 1.0 {
			t.Errorf("log query %q plausibility = %f, want 1", src, p)
		}
	}
	// Find a widget combination the log never used and check it scores
	// lower: Sales+EUR is not in the Figure 1 log.
	if err := sess.LoadQuery("SELECT Sales FROM sales WHERE cty = USA"); err != nil {
		t.Fatal(err)
	}
	before := sess.Plausibility()
	changedToUnseen := false
	ws := sess.Widgets()
	for i := range ws {
		for v := 0; v < 4; v++ {
			if sess.Set(i, v) != nil {
				continue
			}
			sql, err := sess.SQL()
			if err != nil {
				continue
			}
			inLog := false
			for _, src := range paperLog {
				if c := canonical(t, src); c == sql {
					inLog = true
				}
			}
			if !inLog {
				if p := sess.Plausibility(); p < 1.0 {
					changedToUnseen = true
				}
			}
		}
	}
	_ = before
	if !changedToUnseen {
		t.Error("no unseen combination scored below 1 (co-occurrence index inert)")
	}
}

func TestPlausibilitySingleWidget(t *testing.T) {
	// An interface with fewer than 2 choice nodes has no pairs: always 1.
	iface, err := fastGen().Generate(context.Background(), []string{
		"select a from t",
		"select b from t",
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := iface.NewSession()
	if p := sess.Plausibility(); p != 1.0 {
		t.Errorf("pairless plausibility = %f", p)
	}
}

// TestPlausibilityConcurrentSessions: sessions of one interface score
// plausibility at once; the interface's co-occurrence index is built once,
// with no race between them (run under -race).
func TestPlausibilityConcurrentSessions(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	want := iface.NewSession().Plausibility()
	iface, err = LoadInterface(mustMarshal(t, iface), WideScreen) // a fresh, unindexed interface
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	got := make([]float64, sessions)
	var wg sync.WaitGroup
	for i := range got {
		sess := iface.NewSession()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sess.Plausibility()
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p != want {
			t.Errorf("session %d: plausibility %v, want %v", i, p, want)
		}
	}
}
