package router

import (
	"errors"
	"testing"

	"repro/internal/api"
)

// testRouter builds an unprobed Router over synthetic ready replicas, with
// the ring over exactly that set.
func testRouter(urls ...string) *Router {
	rt := &Router{
		cfg:      Config{}.withDefaults(),
		replicas: make(map[string]*Replica),
		sticky:   make(map[string]stickyEntry),
	}
	for _, u := range urls {
		rt.replicas[u] = &Replica{URL: u, state: api.StateReady}
	}
	rt.rebuildRingLocked()
	return rt
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range []string{"", "affinity"} {
		rt, err := New(Config{Policy: name})
		if err != nil {
			t.Fatalf("New(Policy: %q): %v", name, err)
		}
		rt.Close()
	}
	for _, name := range []string{"round-robin", "least-loaded", "warp"} {
		if rt, err := New(Config{Policy: name}); err == nil {
			rt.Close()
			t.Errorf("New(Policy: %q) accepted", name)
		}
	}
}

// TestAffinityPolicyFollowsRing: session and stateless keys land on the
// replica the ring names, stay there, and re-place on the new ring owner
// once their replica leaves the ready set.
func TestAffinityPolicyFollowsRing(t *testing.T) {
	rt := testRouter("http://a:1", "http://b:1", "http://c:1")
	keys := []struct{ key, session string }{
		{"s:alpha", "alpha"}, {"s:beta", "beta"}, {"q:deadbeef", ""},
	}
	for _, k := range keys {
		rep, err := rt.place(k.key, k.session)
		if err != nil {
			t.Fatalf("place(%q): %v", k.key, err)
		}
		if want := rt.ring.lookup(k.key); rep.URL != want {
			t.Errorf("place(%q) = %s, ring owner is %s", k.key, rep.URL, want)
		}
		// Stable: placing again changes nothing.
		if again, _ := rt.place(k.key, k.session); again != rep {
			t.Errorf("place(%q) not stable: %s then %s", k.key, rep.URL, again.URL)
		}

		rt.markDead(rep, errors.New("gone"))
		moved, err := rt.place(k.key, k.session)
		if err != nil {
			t.Fatalf("place(%q) after losing %s: %v", k.key, rep.URL, err)
		}
		if want := rt.ring.lookup(k.key); moved.URL != want || moved == rep {
			t.Errorf("place(%q) after losing %s = %s, ring owner is %s", k.key, rep.URL, moved.URL, want)
		}
		rt.replicas[rep.URL].state = api.StateReady // restore for the next key
		rt.rebuildRingLocked()
		delete(rt.sticky, k.session)
	}

	for _, rep := range rt.members() {
		rt.markDead(rep, errors.New("gone"))
	}
	if _, err := rt.place("q:deadbeef", ""); !errors.Is(err, errNoReplicas) {
		t.Errorf("place with no ready replica: %v, want errNoReplicas", err)
	}
}
