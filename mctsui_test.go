package mctsui

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// fastGen keeps test searches quick and deterministic; extra options are
// applied after its own.
func fastGen(extra ...Option) *Generator {
	opts := []Option{
		WithIterations(10),
		WithRolloutDepth(6),
		WithRewardSamples(3),
		WithSeed(1),
	}
	return New(append(opts, extra...)...)
}

var paperLog = []string{
	"SELECT Sales FROM sales WHERE cty = USA",
	"SELECT Costs FROM sales WHERE cty = EUR",
	"SELECT Costs FROM sales",
}

func TestGeneratePaperExample(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if !iface.Valid() {
		t.Fatal("invalid interface")
	}
	if iface.NumWidgets() == 0 {
		t.Error("no widgets")
	}
	if math.IsInf(iface.Cost(), 1) {
		t.Error("infinite cost")
	}
	m, u := iface.CostBreakdown()
	if m+u != iface.Cost() {
		t.Error("breakdown mismatch")
	}
	w, h := iface.Bounds()
	if w <= 0 || h <= 0 {
		t.Error("empty bounds")
	}
	if !strings.Contains(iface.ASCII(), "(") {
		t.Error("ASCII render empty")
	}
	if !strings.Contains(iface.HTML(), "generated-interface") {
		t.Error("HTML render empty")
	}
	if iface.DiffTree() == "" || iface.Describe() == "" {
		t.Error("descriptions empty")
	}
	if iface.Stats().Iterations != 10 {
		t.Errorf("stats: %+v", iface.Stats())
	}
	if iface.InitialCost() < iface.Cost() {
		t.Error("final cost must not exceed initial")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := New().Generate(context.Background(), nil); err == nil {
		t.Error("empty log")
	}
	if _, err := New().Generate(context.Background(), []string{"not sql"}); err == nil {
		t.Error("parse error must propagate")
	}
	if _, err := New().Generate(context.Background(), []string{"select a from t", "nope"}); err == nil {
		t.Error("second query parse error must propagate")
	} else if !strings.Contains(err.Error(), "query 2") {
		t.Errorf("error should name the query: %v", err)
	}
}

func TestQueriesAndCanExpress(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	qs := iface.Queries(100)
	if len(qs) < 3 {
		t.Fatalf("interface must express at least the log: %v", qs)
	}
	for _, src := range paperLog {
		ok, err := iface.CanExpress(src)
		if err != nil || !ok {
			t.Errorf("cannot express input query %q (%v)", src, err)
		}
	}
	if ok, _ := iface.CanExpress("SELECT Profit FROM sales"); ok {
		t.Error("phantom query expressible")
	}
	if _, err := iface.CanExpress("not sql"); err == nil {
		t.Error("parse error must propagate")
	}
	// Every enumerated query is expressible (round trip).
	for _, q := range qs[:min(len(qs), 10)] {
		ok, err := iface.CanExpress(q)
		if err != nil || !ok {
			t.Errorf("enumerated query %q not expressible", q)
		}
	}
}

func TestSessionLoadAndSQL(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	sess := iface.NewSession()
	for _, src := range paperLog {
		if err := sess.LoadQuery(src); err != nil {
			t.Fatalf("LoadQuery(%q): %v", src, err)
		}
		got, err := sess.SQL()
		if err != nil {
			t.Fatal(err)
		}
		ok, _ := iface.CanExpress(got)
		if !ok {
			t.Errorf("round-tripped SQL %q not expressible", got)
		}
		// Loading a query then rendering must reproduce it canonically.
		want := canonical(t, src)
		if got != want {
			t.Errorf("LoadQuery round trip: got %q, want %q", got, want)
		}
	}
	if err := sess.LoadQuery("SELECT Profit FROM sales"); err == nil {
		t.Error("inexpressible LoadQuery must fail")
	}
	if err := sess.LoadQuery("not sql"); err == nil {
		t.Error("unparsable LoadQuery must fail")
	}
}

func canonical(t *testing.T, src string) string {
	t.Helper()
	iface, err := fastGen().Generate(context.Background(), []string{src})
	if err != nil {
		t.Fatal(err)
	}
	qs := iface.Queries(1)
	if len(qs) != 1 {
		t.Fatal("single query interface must express itself")
	}
	return qs[0]
}

func TestSessionSetWidgets(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	sess := iface.NewSession()
	ws := sess.Widgets()
	if len(ws) == 0 {
		t.Fatal("no widgets in session")
	}
	for _, w := range ws {
		if w.Type == "" {
			t.Error("widget type empty")
		}
	}
	// Changing each widget keeps the query expressible.
	for i, w := range ws {
		nOpts := len(w.Options)
		if nOpts == 0 {
			nOpts = 2 // toggle
		}
		for v := 0; v < nOpts && v < 3; v++ {
			if err := sess.Set(i, v); err != nil {
				// Toggles only accept 0/1; skip over-range.
				continue
			}
			sql, err := sess.SQL()
			if err != nil {
				t.Fatalf("widget %d=%d: %v", i, v, err)
			}
			ok, err := iface.CanExpress(sql)
			if err != nil || !ok {
				t.Errorf("widget %d=%d produced inexpressible %q", i, v, sql)
			}
		}
	}
	// Errors.
	if err := sess.Set(-1, 0); err == nil {
		t.Error("negative widget index")
	}
	if err := sess.Set(len(ws), 0); err == nil {
		t.Error("out of range widget index")
	}
	if err := sess.Set(0, 999); err == nil {
		t.Error("out of range option")
	}
}

func TestSessionExecute(t *testing.T) {
	log := workload.SDSSLogSQL()
	iface, err := fastGen().Generate(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	sess := iface.NewSession()
	if err := sess.LoadQuery(log[0]); err != nil {
		t.Fatal(err)
	}
	db := engine.SDSSDB(200, 7)
	res, spec, err := sess.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	if len(res.Rows) > 10 {
		t.Errorf("TOP 10 violated: %d rows", len(res.Rows))
	}
	if spec.Type.String() == "" {
		t.Error("no chart recommended")
	}
	// count(*) query → big number.
	if err := sess.LoadQuery(log[3]); err != nil {
		t.Fatal(err)
	}
	_, spec2, err := sess.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Type.String() != "big-number" {
		t.Errorf("count(*) should be big-number, got %s", spec2.Type)
	}
}

func TestSingleQueryInterface(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), []string{"select a from t"})
	if err != nil {
		t.Fatal(err)
	}
	if iface.NumWidgets() != 0 {
		t.Error("static interface")
	}
	if !strings.Contains(iface.ASCII(), "static") {
		t.Error("ASCII should note static interface")
	}
	if !strings.Contains(iface.HTML(), "generated-interface") {
		t.Error("HTML should still emit the container")
	}
	sess := iface.NewSession()
	sql, err := sess.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT a FROM t" {
		t.Errorf("static SQL = %q", sql)
	}
}
