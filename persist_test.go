package mctsui

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
)

func TestMarshalLoadRoundTrip(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	data, err := iface.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadInterface(data, WideScreen)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cost() != iface.Cost() {
		t.Errorf("cost drift: %f vs %f", loaded.Cost(), iface.Cost())
	}
	if loaded.NumWidgets() != iface.NumWidgets() {
		t.Error("widget count drift")
	}
	if loaded.ASCII() != iface.ASCII() {
		t.Errorf("render drift:\n%s\nvs\n%s", loaded.ASCII(), iface.ASCII())
	}
	// Loaded interfaces are fully functional sessions.
	sess := loaded.NewSession()
	if err := sess.LoadQuery(paperLog[0]); err != nil {
		t.Fatal(err)
	}
	sql, err := sess.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "Sales") {
		t.Errorf("loaded session SQL: %q", sql)
	}
	// Default screen is wide.
	if _, err := LoadInterface(data, Screen{}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadInterfaceErrors(t *testing.T) {
	if _, err := LoadInterface([]byte("not json"), WideScreen); err == nil {
		t.Error("bad json must fail")
	}
	if _, err := LoadInterface([]byte(`{"version":1,"queries":["???"],"difftree":{"kind":"ALL","label":"Table","value":"t"}}`), WideScreen); err == nil {
		t.Error("unparsable stored query must fail")
	}
}

func TestGenerateMultiSplitsTasks(t *testing.T) {
	mixed := []string{
		"select top 10 objid from stars where u between 0 and 30",
		"select region, sum(revenue) from sales where year = 2019 group by region",
		"select top 100 objid from stars where u between 5 and 25",
		"select region, sum(revenue) from sales where year = 2020 group by region",
	}
	ifaces, err := fastGen().GenerateMulti(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(ifaces) != 2 {
		t.Fatalf("interfaces = %d, want 2 (one per task)", len(ifaces))
	}
	// Cluster order follows the log: SDSS-style first.
	ok, err := ifaces[0].CanExpress(mixed[0])
	if err != nil || !ok {
		t.Error("cluster 0 should express the first query")
	}
	ok, err = ifaces[1].CanExpress(mixed[1])
	if err != nil || !ok {
		t.Error("cluster 1 should express the aggregate query")
	}
	// Cross-cluster queries are not expressible.
	if ok, _ := ifaces[0].CanExpress(mixed[1]); ok {
		t.Error("cluster 0 must not express the other task")
	}
}

func TestGenerateMultiErrors(t *testing.T) {
	if _, err := New().GenerateMulti(context.Background(), nil); err == nil {
		t.Error("empty log")
	}
	if _, err := New().GenerateMulti(context.Background(), []string{"nope"}); err == nil {
		t.Error("parse error")
	}
}

func TestGenerateMultiCoherentLogStaysWhole(t *testing.T) {
	ifaces, err := fastGen().GenerateMulti(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	if len(ifaces) != 1 {
		t.Fatalf("coherent log split into %d interfaces", len(ifaces))
	}
}

func TestInterfacePage(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	page, err := iface.Page("Sales dashboard")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "Sales dashboard", "const DIFFTREE", "data-choice"} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func mustMarshal(t *testing.T, iface *Interface) []byte {
	t.Helper()
	data, err := iface.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMarshalJSONEncodesOnce: every MarshalJSON call and JSONReader read
// returns the codec encoding of the interface, and a caller that changes
// the slice it got changes no later result.
func TestMarshalJSONEncodesOnce(t *testing.T) {
	iface, err := fastGen().Generate(context.Background(), paperLog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Marshal(iface.res.DiffTree, iface.res.UI, iface.QueryLog())
	if err != nil {
		t.Fatal(err)
	}
	first := mustMarshal(t, iface)
	if !bytes.Equal(first, want) {
		t.Fatal("MarshalJSON differs from codec.Marshal")
	}
	for i := range first {
		first[i] = 'x'
	}
	if again := mustMarshal(t, iface); !bytes.Equal(again, want) {
		t.Error("changing a returned slice changed the next MarshalJSON")
	}
	rd, err := iface.JSONReader()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != len(want) {
		t.Errorf("JSONReader Len = %d, want %d", rd.Len(), len(want))
	}
	if got, _ := io.ReadAll(rd); !bytes.Equal(got, want) {
		t.Error("JSONReader differs from codec.Marshal")
	}

	// Concurrent first encodings of a fresh interface agree (run under -race).
	fresh, err := LoadInterface(want, WideScreen)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if data, err := fresh.MarshalJSON(); err != nil || !bytes.Equal(data, want) {
				t.Errorf("concurrent MarshalJSON: %v, equal=%v", err, bytes.Equal(data, want))
			}
		}()
	}
	wg.Wait()
}
