package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
)

// TestExportServesOneEncoding: an export is byte-identical to the codec
// encoding of the session's interface and to the offline interface's
// MarshalJSON, carries its Content-Length, does not change when a caller
// modifies a slice MarshalJSON returned, and is the same under concurrent
// exports of one session (run under -race).
func TestExportServesOneEncoding(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cl := testClient(ts.URL)
	ctx := context.Background()
	gen, err := cl.Append(ctx, "a", &api.SessionQueriesRequest{SearchParams: fastParams, Queries: figure1})
	if err != nil {
		t.Fatal(err)
	}
	export := func() ([]byte, int64) {
		resp, err := http.Get(ts.URL + "/v1/sessions/a/export")
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("export: status %d, %v", resp.StatusCode, err)
		}
		return data, resp.ContentLength
	}

	first, n := export()
	if n != int64(len(first)) {
		t.Errorf("Content-Length %d, body %d bytes", n, len(first))
	}
	diff, ui, queries, err := codec.Unmarshal(first)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Marshal(diff, ui, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Error("export differs from codec.Marshal of the same interface")
	}
	offlineData, err := offline(t, figure1, fastParams, nil).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, offlineData) {
		t.Error("export differs from the offline interface's MarshalJSON")
	}
	if !bytes.Equal(compactJSON(t, first), compactJSON(t, gen.Interface)) {
		t.Error("export differs from the interface the append response embedded")
	}

	// A caller scribbling over its MarshalJSON copy changes no export.
	sess, ok := s.lookup("a", false)
	if !ok {
		t.Fatal("session a not found")
	}
	if err := sess.lock(ctx, s.cfg.QueueWait); err != nil {
		t.Fatal(err)
	}
	mine, err := sess.sess.Interface().MarshalJSON()
	sess.unlock()
	s.done(sess)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mine {
		mine[i] = ' '
	}
	if again, _ := export(); !bytes.Equal(again, want) {
		t.Error("export changed after a caller modified its MarshalJSON slice")
	}

	const readers, each = 4, 5
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if got, _ := export(); !bytes.Equal(got, want) {
					t.Error("concurrent export differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}
