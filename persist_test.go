package mctsui

import (
	"context"
	"strings"
	"testing"
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
