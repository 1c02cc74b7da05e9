package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	mctsui "repro"
	"repro/internal/api"
)

// sseWriteTimeout bounds every SSE frame write. A client that disconnects
// cleanly fails the next write immediately, but one that silently vanishes
// (network partition) or stops reading fills the socket buffers and would
// otherwise block the pump — and with it the search slot — forever. The
// deadline turns that stall into a write error, which cancels the search.
const sseWriteTimeout = 15 * time.Second

// sseWriter serializes events onto the wire with a per-write deadline.
// failed latches the first write error: once the client is unreachable,
// later frames are skipped instead of re-attempted (each attempt against a
// dead peer would otherwise burn its own deadline).
type sseWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	ctrl    *http.ResponseController
	failed  bool
}

// emit writes one event frame; false means the client is gone (this write
// or an earlier one failed) and the caller should cancel the search.
func (sw *sseWriter) emit(event string, v any) bool {
	if sw.failed {
		return false
	}
	data, err := json.Marshal(v)
	if err != nil {
		return true // nothing sensible to send; keep the stream alive
	}
	// SetWriteDeadline errors (unsupported ResponseWriter) are ignored: the
	// write then simply has no deadline, which is the pre-hardening behavior.
	_ = sw.ctrl.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		sw.failed = true
		return false
	}
	sw.flusher.Flush()
	return true
}

// streamSearch runs work on its own goroutine and writes its progress
// snapshots as Server-Sent Events, ending with one "result" or "error"
// event. Snapshots arrive on the search goroutines (serialized by the
// engine); a slow client drops snapshots rather than stalling the search.
//
// cancel tears down the search context: it is invoked the moment a frame
// write fails, so a client that disconnects or stalls mid-stream releases
// its search slot as soon as the anytime engine observes the cancellation —
// the pump never returns (and never frees the slot) before the search
// goroutine has finished, keeping the MaxConcurrent accounting exact.
func (s *Server) streamSearch(w http.ResponseWriter, ctx context.Context, cancel context.CancelFunc,
	work func(ctx context.Context, progress func(mctsui.Progress)) (*api.GenerateResponse, int, error)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusNotAcceptable, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	snapshots := make(chan api.ProgressEvent, 16)
	type outcome struct {
		resp *api.GenerateResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, _, err := work(ctx, func(p mctsui.Progress) {
			ev := api.ProgressEvent{
				Strategy:   p.Strategy,
				Iterations: p.Iterations,
				States:     p.States,
				Evals:      p.Evals,
				BestCost:   api.JSONCost(p.BestCost),
				ElapsedMS:  p.Elapsed.Milliseconds(),
			}
			select {
			case snapshots <- ev:
			default: // client is slow: drop the snapshot, never the search
			}
		})
		done <- outcome{resp, err}
	}()

	sw := &sseWriter{w: w, flusher: flusher, ctrl: http.NewResponseController(w)}
	ctxDone := ctx.Done()
	for {
		select {
		case ev := <-snapshots:
			if !sw.emit(api.EventProgress, ev) {
				// The client is unreachable; stop the search now instead of
				// letting it run out its budget against a dead stream. The
				// loop keeps draining until the search goroutine reports in.
				cancel()
			}
		case out := <-done:
			// Drain snapshots that beat the result onto the channel so the
			// event order stays progress* then result.
			for {
				select {
				case ev := <-snapshots:
					if !sw.emit(api.EventProgress, ev) {
						cancel()
					}
					continue
				default:
				}
				break
			}
			if out.err != nil {
				sw.emit(api.EventError, api.ErrorBody{Error: out.err.Error()})
			} else {
				sw.emit(api.EventResult, out.resp)
			}
			return
		case <-ctxDone:
			// Client went away or the daemon is draining; the work goroutine
			// unblocks promptly (the engine is anytime) and its best-so-far
			// result is emitted above. Nil the channel so this select arm
			// fires once instead of spinning.
			ctxDone = nil
		}
	}
}
