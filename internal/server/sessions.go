package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	mctsui "repro"
	"repro/internal/api"
)

// session is one user's evolving workload: the accumulated query log, the
// interface generated over it, and the live widget state driving it. The
// per-session mutex serializes appends/interactions; lastUsed (guarded by
// the server mutex) drives LRU eviction of idle sessions.
type session struct {
	// lockc is a channel-based mutex (capacity 1) serializing requests on
	// one session. Unlike a sync.Mutex, waiters are bounded: lock() gives
	// up after a deadline and when the client disconnects, so a pile of
	// requests against one busy session id degrades into 409s instead of
	// unbounded parked goroutines that bypass admission control.
	lockc   chan struct{}
	id      string
	queries []string
	// sess carries the widget state; the generated interface it drives is
	// reachable as sess.Interface(). nil until the first successful
	// generation or import. Guarded by lockc.
	sess *mctsui.Session
	// tree is the MCTS search tree persisted by the session's latest
	// generation, re-rooted into the next append's search (nil for
	// tree-parallel or non-MCTS searches, and for imported interfaces).
	// Only the latest tree is kept. Guarded by lockc.
	tree *mctsui.SearchTree
	// lastUsed, refs, and populated are guarded by the *server* mutex:
	// refs counts requests between lookup and done — eviction skips
	// refs > 0, so a session handed to a handler can never be discarded
	// mid-request — and populated records that an interface was ever
	// stored (see Server.done).
	lastUsed  time.Time
	refs      int
	populated bool
}

// lookup returns the session pinned (refs incremented — callers must
// release with done), optionally creating it. Creation never evicts:
// eviction is deferred to markPopulated, so a create that subsequently
// fails validation or generation cannot cost an innocent resident session
// its state. The map therefore overshoots MaxSessions only transiently, by
// at most the number of concurrent requests.
func (s *Server) lookup(id string, create bool) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		sess.lastUsed = time.Now()
		sess.refs++
		return sess, true
	}
	if !create {
		return nil, false
	}
	sess := &session{lockc: make(chan struct{}, 1), id: id, lastUsed: time.Now(), refs: 1}
	s.sessions[id] = sess
	return sess, true
}

// errSessionBusy reports that another request held the session for the
// whole bounded wait.
var errSessionBusy = errors.New("session busy with another request")

// lock serializes requests on the session, waiting at most wait and
// honoring client disconnect; unlock releases it.
func (sess *session) lock(ctx context.Context, wait time.Duration) error {
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case sess.lockc <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return errSessionBusy
	}
}

func (sess *session) unlock() { <-sess.lockc }

// lockStatus maps a session lock failure to its HTTP status.
func lockStatus(err error) int {
	if errors.Is(err, errSessionBusy) {
		return http.StatusConflict
	}
	return http.StatusServiceUnavailable
}

// markPopulated records (under the server mutex) that the session now
// holds an interface; called by the handlers that store one. This is also
// the LRU eviction point: once the newcomer has earned its slot, the
// least-recently-used populated session beyond MaxSessions is discarded —
// never one pinned by an in-flight request.
func (s *Server) markPopulated(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.populated = true
	for len(s.sessions) > s.cfg.MaxSessions {
		var lruID string
		var lruAt time.Time
		for id, cand := range s.sessions {
			if cand == sess || cand.refs > 0 || !cand.populated {
				continue // the newcomer, mid-request, or cleaned up by done()
			}
			if lruID == "" || cand.lastUsed.Before(lruAt) {
				lruID, lruAt = id, cand.lastUsed
			}
		}
		if lruID == "" {
			return // everything else is pinned; done() will converge later
		}
		delete(s.sessions, lruID)
	}
}

// done unpins a looked-up session and re-stamps its recency, so time spent
// searching does not age the session toward LRU eviction. A session that
// never acquired an interface is unregistered once its last holder leaves
// — the cleanup path for requests that created one and then failed
// validation or generation, so failed creates leave no resident state.
// Callers may hold sess.mu; lock order stays acyclic because nothing
// acquires sess.mu under s.mu.
func (s *Server) done(sess *session) {
	s.mu.Lock()
	sess.refs--
	sess.lastUsed = time.Now()
	if !sess.populated && sess.refs == 0 {
		if cur, ok := s.sessions[sess.id]; ok && cur == sess {
			delete(s.sessions, sess.id)
		}
	}
	s.mu.Unlock()
}

func sessionID(r *http.Request) (string, error) {
	id := r.PathValue("id")
	if id == "" {
		return "", errors.New("empty session id")
	}
	if len(id) > 128 {
		return "", errors.New("session id exceeds 128 bytes")
	}
	return id, nil
}

func (s *Server) handleSessionQueries(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var req api.SessionQueriesRequest
	if !s.decode(w, r, &req) {
		return
	}
	stream := req.Stream || acceptsSSE(r)
	// The per-session lock is taken *before* a search slot: concurrent
	// appends to one session serialize here, holding no slot while they
	// wait, so a single busy session cannot pin the daemon's whole search
	// capacity. done() discards the session again if this request created
	// it and then fails the lock, admission, validation, or generation.
	sess, _ := s.lookup(id, true)
	defer s.done(sess)
	if err := sess.lock(r.Context(), s.cfg.QueueWait); err != nil {
		s.fail(w, lockStatus(err), err)
		return
	}
	defer sess.unlock()
	// created reports (in the response) that this request found no stored
	// interface — the client's signal that it is not extending previous
	// state, e.g. after its session idled out of the LRU.
	created := sess.sess == nil
	// Validate everything cheap — params and the extended log's size —
	// before any SSE headers are committed, so these fail as plain 400s in
	// streaming mode too.
	queries := make([]string, 0, len(sess.queries)+len(req.Queries))
	queries = append(queries, sess.queries...)
	queries = append(queries, req.Queries...)
	if len(queries) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty query log"))
		return
	}
	if len(queries) > s.cfg.MaxQueries {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("session log exceeds %d entries", s.cfg.MaxQueries))
		return
	}
	baseOpts, err := s.options(req.SearchParams)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.runSearch(w, r, stream, func(ctx context.Context, progress func(mctsui.Progress)) (*api.GenerateResponse, int, error) {
		var warm *mctsui.Interface
		if sess.sess != nil {
			warm = sess.sess.Interface()
		}
		iface, err := mctsui.New(searchOpts(baseOpts, warm, sess.tree, progress)...).Generate(ctx, queries)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		// A disconnected client never sees this response, so its append is
		// not committed — otherwise its timeout-and-retry would double the
		// appended queries in the stored log. (A daemon drain is different:
		// the client is still connected and receives the best-so-far
		// result, so the commit below matches what it saw.)
		if err := r.Context().Err(); err != nil {
			return nil, http.StatusRequestTimeout, fmt.Errorf("client disconnected during search: %w", err)
		}
		// Carry the interactive state across the regeneration: re-apply the
		// previous current query when the new interface still expresses it
		// (generated interfaces usually generalize, so it usually does).
		var prevSQL string
		if sess.sess != nil {
			prevSQL, _ = sess.sess.SQL()
		}
		ui := iface.NewSession()
		if prevSQL != "" {
			_ = ui.LoadQuery(prevSQL)
		}
		sess.queries, sess.sess, sess.tree = queries, ui, iface.SearchTree()
		s.markPopulated(sess)
		resp, err := s.response(iface, id, len(queries))
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.Created = created
		return resp, 0, nil
	})
}

func (s *Server) handleInteract(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var req api.InteractRequest
	if !s.decode(w, r, &req) {
		return
	}
	sess, ok := s.lookup(id, false)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	defer s.done(sess)
	if err := sess.lock(r.Context(), s.cfg.QueueWait); err != nil {
		s.fail(w, lockStatus(err), err)
		return
	}
	defer sess.unlock()
	if sess.sess == nil {
		s.fail(w, http.StatusConflict, fmt.Errorf("session %q has no interface yet", id))
		return
	}
	switch req.Op {
	case api.OpSet:
		err = sess.sess.Set(req.Widget, req.Value)
	case api.OpSetInstance:
		err = sess.sess.SetInstance(req.Widget, req.Value, req.Instance...)
	case api.OpLoadQuery:
		err = sess.sess.LoadQuery(req.Query)
	case api.OpGet, "":
		// Read-only snapshot.
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown op %q (want set, set_instance, load_query, or get)", req.Op))
		return
	}
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	sql, err := sess.sess.SQL()
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("widget values generate no query: %w", err))
		return
	}
	infos := sess.sess.Widgets()
	widgets := make([]api.WidgetState, len(infos))
	for i, wi := range infos {
		widgets[i] = api.WidgetState{
			Index: wi.Index, Type: wi.Type, Title: wi.Title,
			Options: wi.Options, Value: wi.Value,
		}
	}
	s.writeJSON(w, http.StatusOK, api.InteractResponse{Session: id, SQL: sql, Widgets: widgets})
}

// handleImport loads a persisted interface (codec JSON, the export format)
// as a session — the daemon's attacker-controlled deserialization surface,
// fuzz-walled in internal/codec: malformed bytes must error, never panic.
// Decoding re-parses up to MaxQueries statements and re-evaluates the cost
// model, so the endpoint passes through the same admission gate as the
// search endpoints. Cost is derived data re-scored against the target
// screen: pass the generating screen as ?w=&h= (wide default otherwise) so
// an imported interface round-trips its cost and validity.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	screen := mctsui.Screen{}
	if q := r.URL.Query(); q.Get("w") != "" || q.Get("h") != "" {
		sw, err1 := strconv.Atoi(q.Get("w"))
		sh, err2 := strconv.Atoi(q.Get("h"))
		if err1 != nil || err2 != nil || sw <= 0 || sh <= 0 {
			s.fail(w, http.StatusBadRequest, errors.New("screen parameters w and h must both be positive integers"))
			return
		}
		screen = mctsui.Screen{W: sw, H: sh}
	}
	// The body is read from the network before any slot is held (a
	// trickling client must not pin search capacity), the CPU-bound decode
	// runs under a search slot, and the slot is released before the session
	// lock is taken — waiting on a busy session must not pin capacity
	// either.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	iface, status, err := func() (*mctsui.Interface, int, error) {
		if err := s.acquire(r.Context()); err != nil {
			return nil, admissionStatus(err), err
		}
		defer s.release()
		iface, err := mctsui.LoadInterface(data, screen)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		return iface, 0, nil
	}()
	if err != nil {
		s.fail(w, status, err)
		return
	}
	queries := iface.QueryLog()
	if len(queries) > s.cfg.MaxQueries {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("imported log exceeds %d entries", s.cfg.MaxQueries))
		return
	}
	sess, _ := s.lookup(id, true)
	defer s.done(sess)
	if err := sess.lock(r.Context(), s.cfg.QueueWait); err != nil {
		s.fail(w, lockStatus(err), err)
		return
	}
	created := sess.sess == nil
	// An import replaces the session's state wholesale; any search tree from
	// a previous generation described the replaced interface, so drop it.
	sess.queries, sess.sess, sess.tree = queries, iface.NewSession(), nil
	sess.unlock()
	s.markPopulated(sess)
	resp, err := s.response(iface, id, len(queries))
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	resp.Created = created
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	sess, ok := s.lookup(id, false)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	defer s.done(sess)
	// The lock is held only long enough to read the interface pointer
	// (interfaces are immutable once generated); the body write happens
	// unlocked, so a slow-reading client cannot block other requests to the
	// session for the duration of the transfer.
	if err := sess.lock(r.Context(), s.cfg.QueueWait); err != nil {
		s.fail(w, lockStatus(err), err)
		return
	}
	var iface *mctsui.Interface
	if sess.sess != nil {
		iface = sess.sess.Interface()
	}
	sess.unlock()
	if iface == nil {
		s.fail(w, http.StatusConflict, fmt.Errorf("session %q has no interface yet", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		// The interface's one encoding, made at most once (usually by the
		// generate, append or import response that stored it).
		rd, err := iface.JSONReader()
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(rd.Len()))
		w.WriteHeader(http.StatusOK)
		_, _ = rd.WriteTo(w)
	case "html":
		page, err := iface.Page("Session " + id)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, page)
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or html)", format))
	}
}
