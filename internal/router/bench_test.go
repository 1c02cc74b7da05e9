package router

import (
	"context"
	"net/http/httptest"
	"testing"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/workload"
)

// BenchmarkFleetReads times the two session reads an analyst issues, sent
// through a router to two replicas on loopback: an interact get and a JSON
// export of an interface generated over the SDSS log (15 iterations, seed
// 1; about 10 KB encoded). Each op is one client round trip; allocs/op
// counts the client, the router and the replicas together.
//
//	go test -run '^$' -bench BenchmarkFleetReads -benchmem ./internal/router
func BenchmarkFleetReads(b *testing.B) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		b.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := New(Config{Replicas: urls})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	tsR := httptest.NewServer(rt.Handler())
	b.Cleanup(tsR.Close)
	cl := fleetClient(tsR.URL)
	ctx := context.Background()

	iface, err := mctsui.New(mctsui.WithIterations(15), mctsui.WithSeed(1)).Generate(ctx, workload.SDSSLogSQL())
	if err != nil {
		b.Fatal(err)
	}
	data, err := iface.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	const id = "reads"
	if _, err := cl.ImportSession(ctx, id, data, nil); err != nil {
		b.Fatal(err)
	}

	b.Run("interact-get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Interact(ctx, id, &api.InteractRequest{Op: api.OpGet}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("export", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := cl.ExportSession(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
