// Package eval implements the memoized evaluation engine behind every
// search strategy: a concurrency-safe transposition cache keyed by the
// difftree's structural hash, and an Engine that computes — and memoizes —
// the three expensive per-state quantities of the search:
//
//   - StateCost, the paper's reward primitive C(W,Q) sampled over k widget
//     assignments,
//   - LegalState, the system invariant (size prune + every query stays
//     expressible), and
//   - Moves, the legal move set, kept as 4-byte move codes (see
//     pathTable) that hold no pointer for the garbage collector to mark.
//
// The Engine also owns the search step built on them: Neighbors applies
// every legal move, UniformMove one drawn uniformly, and RandomMove is the
// MCTS rollout step. A cached engine re-matches queries through its own
// difftree.MatchMemo, made on its first full re-match and dropped with the
// engine.
//
// Scoring a state is deterministic per state: the reward-sampling RNG is
// seeded from the state's hash mixed with the engine's base seed, so a
// cached value is bit-identical to what any worker would recompute. That is
// what lets one cache be shared by concurrent searches, by all tree-parallel
// MCTS workers and by the beam/greedy/random/exhaustive searchers without changing any result: with
// or without the cache, for a fixed seed, every strategy returns the same
// best cost.
package eval

import (
	"sync"
	"sync/atomic"
)

// shardCount spreads cache keys over independently locked shards; a power
// of two so shard selection is a mask.
const shardCount = 64

// DefaultMaxEntries bounds the cache at roughly a million states, a few
// hundred MB worst case on the paper's logs — far beyond what a search
// budget visits, so eviction is the exception, not the rule.
const DefaultMaxEntries = 1 << 20

// Cache is a concurrency-safe transposition table over difftree states.
// Entries accumulate the memoized aspects of a state (cost, legality, move
// set) as they are first computed. A Cache is scoped to one evaluation
// configuration fingerprint (see Engine): engines mix their fingerprint
// into every key, so one Cache instance can safely back generators with
// different logs, screens, or seeds without cross-talk.
//
// Eviction policy: each shard is an independent CLOCK (second-chance) ring.
// Every lookup that finds an entry sets the entry's reference bit; when a
// full shard must admit a new state, a clock hand sweeps the ring, clearing
// reference bits as it passes, and evicts the first entry found with its
// bit already clear. Entries revisited between sweeps therefore survive
// scan-heavy workloads (a long stream of one-shot states evicts other
// one-shot states, not the hot set), at the cost of a single bit per entry
// and no extra allocation on the lookup path. Evicting never changes a
// result: state evaluation is a pure function of (config, state), so a
// dropped entry is simply recomputed bit-identically on the next visit —
// correctness never depends on an insert landing or an entry staying
// resident. That is the contract that lets a long-lived daemon run a
// tightly bounded cache under an unbounded stream of workloads.
type Cache struct {
	maxPerShard int
	shards      [shardCount]shard
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64

	// paths holds the paths of the move codes every cached move list is
	// made of (see pathTable), bounded by the cache's capacity. It is
	// replaced, under every shard lock, by Reset and by rotatePaths when
	// full, so the table read under any one shard lock is the one that
	// shard's lists decode against. A list handed out earlier keeps
	// decoding against the table it came with.
	paths atomic.Pointer[pathTable]
}

// shard is one CLOCK ring: the map resolves a key to its ring slot, the
// ring holds the entries (inline, off the GC scan list for the common
// fields), and hand is the clock position of the next eviction sweep. The
// ring grows by appending until it reaches capacity and is never shrunk
// except by Reset.
type shard struct {
	mu   sync.Mutex
	m    map[uint64]int
	ring []slot
	hand int
}

// slot is one ring position: the resident key, its second-chance reference
// bit, and the entry payload. All fields are guarded by the shard mutex.
type slot struct {
	key uint64
	ref bool
	e   entry
}

// entry is the memoized record of one (configuration, state) pair. Entries
// are stored by value — the search retains hundreds of thousands of
// one-shot states, and inline storage keeps them off the GC scan list.
// Fields are guarded by the owning shard's mutex.
type entry struct {
	cost     float64
	hasCost  bool
	legal    uint8    // 0 unknown, 1 legal, 2 illegal
	moves    []uint32 // move codes against the cache's paths
	hasMoves bool
}

// NewCache returns a cache holding at least maxEntries states
// (DefaultMaxEntries when <= 0). The bound is enforced per shard — rounded
// up to shard granularity, so total capacity is in [maxEntries,
// maxEntries+shardCount) — which means a hot shard can start evicting while
// others still have room; keys are scattered by a mixed hash, so shards
// fill evenly in practice. A full shard admits new states by evicting cold
// ones (per-shard CLOCK, see Cache), so a long-lived process keeps
// memoizing its current working set forever; Reset remains available for
// callers that want a hard rotation point. The paths of the cached move
// lists are bounded too, at maxEntries clamped to [2^16, 2^23] paths: when
// the table is full, the cache starts an empty one and drops the move lists
// of the old one (costs and legality verdicts stay), which are recomputed
// on their next visit.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := (maxEntries + shardCount - 1) / shardCount
	c := &Cache{maxPerShard: perShard}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]int)
	}
	c.paths.Store(newPathTable(pathLimit(maxEntries)))
	return c
}

func (c *Cache) shard(key uint64) *shard { return &c.shards[key&(shardCount-1)] }

// get returns key's entry, marking its reference bit (the CLOCK "used since
// the hand last passed" signal). Caller must hold s.mu.
func (s *shard) get(key uint64) (entry, bool) {
	i, ok := s.m[key]
	if !ok {
		return entry{}, false
	}
	s.ring[i].ref = true
	return s.ring[i].e, true
}

// insert admits key into the shard, evicting the hand's second-chance
// victim when the ring is at capacity, and returns the slot index. Caller
// must hold s.mu.
func (c *Cache) insert(s *shard, key uint64) int {
	if len(s.ring) < c.maxPerShard {
		s.ring = append(s.ring, slot{key: key})
		s.m[key] = len(s.ring) - 1
		return len(s.ring) - 1
	}
	// CLOCK sweep: clear reference bits as the hand passes; evict the first
	// slot whose bit is already clear. Terminates within two revolutions.
	for {
		sl := &s.ring[s.hand]
		if sl.ref {
			sl.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.m, sl.key)
		*sl = slot{key: key}
		i := s.hand
		s.m[key] = i
		s.hand = (s.hand + 1) % len(s.ring)
		c.evictions.Add(1)
		return i
	}
}

// lockFor returns key's entry slot under the shard lock, creating the entry
// (evicting a cold one when the shard is at capacity) if absent. New entries
// are admitted with a clear reference bit, so a pure scan workload evicts
// its own one-shot states before touching entries that have been hit since
// the hand last passed. The caller must s.mu.Unlock after writing.
func (c *Cache) lockFor(key uint64) (*shard, *entry) {
	s := c.shard(key)
	s.mu.Lock()
	i, ok := s.m[key]
	if !ok {
		i = c.insert(s, key)
	}
	return s, &s.ring[i].e
}

// probe returns a copy of key's entry in one shard lookup, marking the
// CLOCK reference bit. It does not touch the hit/miss counters: the engine
// counts each aspect lookup with count. The entry's moves slice is shared
// with the cache: callers must not modify it.
func (c *Cache) probe(key uint64) (entry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, found := s.get(key)
	s.mu.Unlock()
	return e, found
}

// probeMoves is probe for key's move list: its codes, shared with the
// cache, and the path table they decode against; ok is false when the list
// is not cached.
func (c *Cache) probeMoves(key uint64) (codes []uint32, paths *pathTable, ok bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, found := s.get(key); found && e.hasMoves {
		codes, paths, ok = e.moves, c.paths.Load(), true
	}
	s.mu.Unlock()
	return codes, paths, ok
}

// SetCost records a state cost. Like every setter, the first write wins:
// evaluation is a pure function of (config, state), so two writers for one
// key computed the same value and there is nothing to overwrite — and a
// snapshot import (which reuses these semantics) can never clobber an entry
// a live search populated.
func (c *Cache) SetCost(key uint64, v float64) {
	s, e := c.lockFor(key)
	if !e.hasCost {
		e.cost, e.hasCost = v, true
	}
	s.mu.Unlock()
}

// SetLegal records a legality verdict (first write wins, see SetCost).
func (c *Cache) SetLegal(key uint64, legal bool) {
	s, e := c.lockFor(key)
	if e.legal == 0 {
		if legal {
			e.legal = 1
		} else {
			e.legal = 2
		}
	}
	s.mu.Unlock()
}

// importEntry merges one snapshot entry's aspects, first-write-wins per
// aspect: an import is idempotent, and never clobbers anything a live
// search has already computed. legal uses the entry encoding (0 unknown,
// 1 legal, 2 illegal). moves are codes against paths, kept (and owned by
// the cache) only while paths is the cache's table.
func (c *Cache) importEntry(key uint64, cost float64, hasCost bool, legal uint8, moves []uint32, paths *pathTable) {
	s, e := c.lockFor(key)
	if hasCost && !e.hasCost {
		e.cost, e.hasCost = cost, true
	}
	if legal != 0 && e.legal == 0 {
		e.legal = legal
	}
	if paths != nil && !e.hasMoves && c.paths.Load() == paths {
		e.moves, e.hasMoves = moves, true
	}
	s.mu.Unlock()
}

// setMoves records a legal move set as codes against paths (first write
// wins, see SetCost). It is kept only while paths is the cache's table,
// which then owns ms.
func (c *Cache) setMoves(key uint64, ms []uint32, paths *pathTable) {
	s, e := c.lockFor(key)
	if !e.hasMoves && c.paths.Load() == paths {
		e.moves, e.hasMoves = ms, true
	}
	s.mu.Unlock()
}

// rotatePaths replaces the full path table old, unless another caller
// already has, with an empty one and drops the move lists encoded against
// old; it returns the cache's table. Evicted states leave their paths
// behind, so a long-lived cache fills its table with paths no list names,
// and rotating is what reclaims them.
func (c *Cache) rotatePaths(old *pathTable) *pathTable {
	c.lockAll()
	defer c.unlockAll()
	if c.paths.Load() == old {
		c.paths.Store(newPathTable(old.limit))
		for i := range c.shards {
			for j := range c.shards[i].ring {
				e := &c.shards[i].ring[j].e
				//mctsvet:allow cachewrite -- drops a list whose path table is gone; it is recomputed on the next visit, never overwritten
				e.moves, e.hasMoves = nil, false
			}
		}
	}
	return c.paths.Load()
}

func (c *Cache) lockAll() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *Cache) unlockAll() {
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Reset drops every memoized state (all fingerprints) and the path table
// of the cached move lists, and zeroes the counters, returning the cache to
// its freshly constructed state. Move lists handed out before the Reset keep decoding against the table they came with. Safe to
// call concurrently with readers: in-flight lookups simply miss and
// recompute — by construction a recompute equals the dropped value.
func (c *Cache) Reset() {
	c.lockAll()
	c.paths.Store(newPathTable(c.paths.Load().limit))
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[uint64]int)
		s.ring = nil
		s.hand = 0
	}
	c.unlockAll()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

func (c *Cache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Stats reports cumulative cache effectiveness.
type Stats struct {
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that had to compute
	Entries   int64 // states currently resident
	Evictions int64 // states evicted to admit new ones
	Capacity  int64 // maximum resident states across all shards
}

// HitRate is Hits/(Hits+Misses), 0 when the cache saw no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  int64(c.maxPerShard) * shardCount,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.ring))
		s.mu.Unlock()
	}
	return st
}
