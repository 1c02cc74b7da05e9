package router

// Fleet membership management: the router-side half of warm bring-up and
// warm handoff, built from the daemon primitives PR 8 and this PR provide
// (/v1/cache/export, /v1/cache/import, /v1/drain, /readyz).
//
//   - Join primes the newcomer before it takes traffic: the warmest ready
//     replica's cache snapshot is exported and imported into the joiner,
//     then the joiner is probed and (once ready) enters the ring. A joiner
//     therefore reports warm cache hits from its very first request.
//   - Leave is the planned-removal path: the departing replica is ejected
//     from the ring first (no new work lands on it), drained (in-flight
//     searches return best-so-far; export stays available by design), and
//     its cache is exported and imported into every remaining ready replica
//     — first-write-wins merge semantics make that safe however much the
//     snapshots overlap — so the warmth the replica accumulated survives it.
//
// Join and leave serialize on fleetMu: each is a multi-step sequence, and a
// second concurrent mutation gets 409 instead of interleaving half-applied
// membership states.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
)

// fleetOpTimeout bounds one join/leave end to end. Snapshot transfers are
// size-capped (api.MaxSnapshotBytes), so a minute is generous.
const fleetOpTimeout = time.Minute

// lockFleet claims the one-at-a-time membership-mutation slot; false means
// the 409 has been written.
func (rt *Router) lockFleet(w http.ResponseWriter) bool {
	select {
	case rt.fleetMu <- struct{}{}:
		return true
	default:
		rt.fail(w, http.StatusConflict, errors.New("another fleet membership change is in progress"))
		return false
	}
}

func (rt *Router) unlockFleet() { <-rt.fleetMu }

func (rt *Router) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	var req api.FleetJoinRequest
	if !rt.decode(w, r, &req) {
		return
	}
	u := normalizeURL(req.URL)
	if u == "" {
		rt.fail(w, http.StatusBadRequest, errors.New("empty replica URL"))
		return
	}
	if !rt.lockFleet(w) {
		return
	}
	defer rt.unlockFleet()
	rt.mu.Lock()
	_, exists := rt.replicas[u]
	rt.mu.Unlock()
	if exists {
		rt.fail(w, http.StatusConflict, fmt.Errorf("replica %s is already a fleet member", u))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), fleetOpTimeout)
	defer cancel()

	joiner := rt.newReplica(u)
	// The joiner must be alive before anything else — priming a dead URL
	// would waste a donor export.
	if _, err := joiner.cl.Stats(ctx); err != nil {
		rt.fail(w, http.StatusBadGateway, fmt.Errorf("joining replica %s is unreachable: %w", u, err))
		return
	}

	resp := api.FleetJoinResponse{URL: u}
	if !req.Cold {
		donor, err := rt.pickDonor(req.Donor)
		if err != nil {
			rt.fail(w, http.StatusBadGateway, err)
			return
		}
		if donor != nil { // a first, empty fleet has no donor: the joiner starts cold
			entries, err := rt.shipCache(ctx, donor, joiner)
			if err != nil {
				rt.fail(w, http.StatusBadGateway, fmt.Errorf("priming %s from %s: %w", u, donor.URL, err))
				return
			}
			resp.Primed = true
			resp.Donor = donor.URL
			resp.Entries = entries
		}
	}

	rt.mu.Lock()
	rt.replicas[u] = joiner
	rt.mu.Unlock()
	// The post-add probe classifies the joiner (ready/unready/draining) and
	// rebuilds the ring; a still-warming replica enters the ring when the
	// probe loop later sees its /readyz flip.
	probeCtx, probeCancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	rt.ProbeOnce(probeCtx)
	probeCancel()
	rt.writeJSON(w, http.StatusOK, resp)
}

// pickDonor resolves the priming donor: the named replica, or the warmest
// ready one. A named donor must exist and be ready; no-donor (nil, nil)
// means the fleet has no warmth to give and the join proceeds cold.
func (rt *Router) pickDonor(named string) (*Replica, error) {
	if named == "" {
		return rt.warmestReady(), nil
	}
	u := normalizeURL(named)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := rt.replicas[u]
	if !ok {
		return nil, fmt.Errorf("donor %s is not a fleet member", u)
	}
	if rep.state != api.StateReady && rep.state != api.StateDraining {
		return nil, fmt.Errorf("donor %s is %s", u, rep.state)
	}
	return rep, nil
}

// shipCache streams one cache snapshot from donor to recipient and returns
// the recipient's merged entry count.
func (rt *Router) shipCache(ctx context.Context, donor, recipient *Replica) (int64, error) {
	snap, err := donor.cl.ExportCache(ctx)
	if err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	defer snap.Close()
	resp, err := recipient.cl.ImportCache(ctx, snap)
	if err != nil {
		return 0, fmt.Errorf("import: %w", err)
	}
	return resp.Entries, nil
}

func (rt *Router) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	var req api.FleetLeaveRequest
	if !rt.decode(w, r, &req) {
		return
	}
	u := normalizeURL(req.URL)
	if !rt.lockFleet(w) {
		return
	}
	defer rt.unlockFleet()
	rt.mu.Lock()
	rep, ok := rt.replicas[u]
	if ok {
		// Eject before anything else: no new work may land on the leaver
		// while the handoff runs, and its sessions re-place immediately.
		rep.state = api.StateDraining
		rt.dropPlacementsLocked(u)
		rt.rebuildRingLocked()
	}
	rt.mu.Unlock()
	if !ok {
		rt.fail(w, http.StatusNotFound, fmt.Errorf("replica %s is not a fleet member", u))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), fleetOpTimeout)
	defer cancel()

	resp := api.FleetLeaveResponse{URL: u}
	if _, err := rep.cl.Drain(ctx); err == nil {
		resp.Drained = true
	}
	// Warm handoff: the leaver's cache ships to every surviving ready
	// replica (export is available while draining — that asymmetry is the
	// point). An unreachable leaver (crash, not planned removal) just
	// skips the handoff; removal proceeds either way.
	if !req.Cold && resp.Drained {
		rt.mu.Lock()
		survivors := rt.readyReplicasLocked()
		rt.mu.Unlock()
		for i, sv := range survivors {
			entries, err := rt.shipCache(ctx, rep, sv)
			if err != nil {
				rt.fail(w, http.StatusBadGateway, fmt.Errorf("handoff from %s to %s: %w", u, sv.URL, err))
				return
			}
			if i == 0 {
				resp.Entries = entries
			}
			resp.Recipients = append(resp.Recipients, sv.URL)
		}
	}

	rt.mu.Lock()
	if cur, stillThere := rt.replicas[u]; stillThere && cur == rep {
		delete(rt.replicas, u)
		rt.rebuildRingLocked()
	}
	rt.mu.Unlock()
	rt.writeJSON(w, http.StatusOK, resp)
}

// decode reads a small JSON body; false means the response has been
// written.
func (rt *Router) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := rt.readBody(w, r, api.MaxBodyBytes)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		rt.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
