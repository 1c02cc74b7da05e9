package eval

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/assign"
	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/rules"
)

// Config fixes one evaluation problem: everything a state's cost, legality,
// and move set depend on. Two engines with equal configs compute identical
// values for every state, which is what makes their cache entries
// interchangeable.
type Config struct {
	Log     []*ast.Node  // the (ordered) query log
	Model   cost.Model   // cost parameters incl. screen constraint
	Samples int          // k random widget assignments per state cost
	Rules   []rules.Rule // transformation rule set gating moves
	SizeCap int          // state-size prune bound (0 = uncapped)
	Seed    int64        // base seed for per-state reward sampling
}

// Engine evaluates difftree states for one Config, memoizing through an
// optional shared Cache. A nil cache disables memoization entirely — every
// call recomputes — which is the reference baseline the bench harness
// compares against. Beyond the cache, the Engine holds only its match memo
// (see fullLegal), dropped with it, and, when uncached, the path table of
// its move lists (see Moves). It is safe for concurrent use.
type Engine struct {
	cfg   Config
	cache *Cache
	fp    uint64 // configuration fingerprint, mixed into every cache key

	// masks[i] is rules.KindMask(cfg.Rules[i]); widens[i] is
	// rules.Widens(cfg.Rules[i]); shapers[i] is cfg.Rules[i] when it is a
	// widening shaper, else nil.
	masks   []uint8
	widens  []bool
	shapers []shaper

	// matches memoizes the matcher's All-node step across the full
	// re-matches of this engine: nil until the first one, and never set
	// on an uncached engine.
	matches atomic.Pointer[difftree.MatchMemo]

	// ruleCodes[i] is cfg.Rules[i]'s rule-name id in ruleNames, shifted
	// into code position. ownPaths is the path table of an uncached
	// engine's move lists; a cached engine encodes against the cache's.
	ruleCodes []uint32
	ownPaths  atomic.Pointer[pathTable]
}

// shaper is a widening rule that reports what a widening verdict reads of
// its replacement, size and nullability, without building it; Moves judges
// its candidates with legalShaped. The rule must apply no parent veto, and
// its replacement of a node of a valid tree must be valid.
// rules.MultiMerge is one.
type shaper interface {
	rules.Rule
	Shape(n *difftree.Node) (size int, nullable, ok bool)
}

// New builds an engine over cfg, memoizing into cache (nil = uncached).
func New(cfg Config, cache *Cache) *Engine {
	e := &Engine{cfg: cfg, cache: cache, fp: fingerprint(cfg)}
	e.masks = make([]uint8, len(cfg.Rules))
	e.widens = make([]bool, len(cfg.Rules))
	e.shapers = make([]shaper, len(cfg.Rules))
	for i, r := range cfg.Rules {
		e.masks[i] = rules.KindMask(r)
		e.widens[i] = rules.Widens(r)
		if s, ok := r.(shaper); ok && e.widens[i] {
			e.shapers[i] = s
		}
	}
	var ok bool
	if e.ruleCodes, ok = ruleNames.codes(cfg.Rules); !ok {
		panic(fmt.Sprintf("eval: the rules name more than %d rules", maxRuleIDs))
	}
	if cache == nil {
		e.ownPaths.Store(newPathTable(pathLimit(DefaultMaxEntries)))
	}
	return e
}

// fingerprint digests every config field a state's evaluation depends on,
// so one Cache can back engines with different configurations without
// cross-talk. Rules are digested by full identity — dynamic type plus field
// values — not just Name(): two rule sets that share names but differ in
// parameterization must not share cache entries.
func fingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(len(cfg.Log)))
	for _, q := range cfg.Log {
		w(ast.Hash(q))
	}
	w(math.Float64bits(cfg.Model.NavUnit))
	w(uint64(cfg.Model.Screen.W))
	w(uint64(cfg.Model.Screen.H))
	w(uint64(cfg.Samples))
	w(uint64(cfg.SizeCap))
	w(uint64(cfg.Seed))
	for _, r := range cfg.Rules {
		h.Write([]byte(r.Name()))
		h.Write([]byte{0})
		fmt.Fprintf(h, "%T|%+v", r, r)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer; it scatters the structural hash so
// shard selection and per-state RNG seeds are well distributed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (e *Engine) key(h uint64) uint64 { return mix64(h ^ e.fp) }

// Enabled reports whether memoization is on.
func (e *Engine) Enabled() bool { return e.cache != nil }

// CacheStats snapshots the backing cache's counters (zero when uncached).
func (e *Engine) CacheStats() Stats {
	if e.cache == nil {
		return Stats{}
	}
	return e.cache.Stats()
}

// SizeCap returns the configured state-size prune bound.
func (e *Engine) SizeCap() int { return e.cfg.SizeCap }

// StateCost is the paper's reward primitive: the best cost among the
// cost-greedy first widget assignment plus k random ones. It is a pure
// function of (config, state): SampledCost's generator is seeded from the
// state's structural hash mixed with the base seed, never from a shared
// stream — so every worker, cached or not, computes bit-identical values,
// and a cache hit is indistinguishable from a recompute.
func (e *Engine) StateCost(d *difftree.Node) float64 {
	h := difftree.Hash(d)
	var k uint64
	if e.cache != nil {
		k = e.key(h)
		if v, ok := e.cache.probe(k); ok && v.hasCost {
			e.cache.count(true)
			return v.cost
		}
		e.cache.count(false)
	}
	c := SampledCost(d, e.cfg.Log, e.cfg.Model, e.cfg.Samples, int64(mix64(h^uint64(e.cfg.Seed))))
	if e.cache != nil {
		e.cache.SetCost(k, c)
	}
	return c
}

// SampledCost scores a difftree with the cost-greedy first assignment plus
// k random widget assignments, drawn from a generator seeded with seed;
// +Inf when no widget tree expresses the log on the screen. The generator
// is seeded only for a difftree with a widget plan and a choice to draw:
// seeding math/rand is costly, and most states a search scores have no
// plan.
func SampledCost(d *difftree.Node, log []*ast.Node, model cost.Model, k int, seed int64) float64 {
	plan, err := assign.BuildPlan(d)
	if err != nil {
		return math.Inf(1)
	}
	ev := model.NewEvaluator(d, log)
	if !d.HasChoice() {
		return ev.Evaluate(nil).Total()
	}
	best := ev.Evaluate(plan.First()).Total()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		if c := ev.Evaluate(plan.Random(rng)).Total(); c < best {
			best = c
		}
	}
	return best
}

// LegalState reports whether d is a valid search state: within the size
// cap, structurally valid, and still expressing every log query. The full
// verdict — size gate included — is memoized, so a hit costs one hash walk
// (itself amortized by per-node hash caching) and one shard lookup. A miss
// runs the full re-match (fullLegal).
func (e *Engine) LegalState(d *difftree.Node) bool {
	h := difftree.Hash(d)
	var k uint64
	if e.cache != nil {
		k = e.key(h)
		if v, ok := e.cache.probe(k); ok && v.legal != 0 {
			e.cache.count(true)
			return v.legal == 1
		}
		e.cache.count(false)
	}
	v := e.fullLegal(d)
	if e.cache != nil {
		e.cache.SetLegal(k, v)
	}
	return v
}

// fullLegal is the LegalState verdict computed afresh: the size gate, the
// structural check, which walks only the subtrees not yet checked
// (difftree.Validate), and the re-match of every log query. On a cached
// engine the re-match goes through the engine's difftree.MatchMemo, made on
// the first call, so a step repeated from an earlier re-match is looked up;
// it agrees with the oracle, rules.LegalState, unless the oracle's match
// exhausts the matcher's backtracking budget. An uncached engine re-matches
// through the oracle itself, so it stays the no-memo reference.
func (e *Engine) fullLegal(d *difftree.Node) bool {
	if !e.fits(d.Size()) {
		return false
	}
	if e.cache == nil {
		return rules.LegalState(d, e.cfg.Log)
	}
	return difftree.Validate(d) == nil && e.matchMemo().ExpressibleAll(d)
}

// matchMemo returns the engine's match memo, making it on first use. Made
// eagerly, the table would be garbage for every search that never
// re-matches, as a warm one mostly does not.
func (e *Engine) matchMemo() *difftree.MatchMemo {
	if mm := e.matches.Load(); mm != nil {
		return mm
	}
	e.matches.CompareAndSwap(nil, difftree.NewMatchMemo(e.cfg.Log))
	return e.matches.Load()
}

// arenaPool recycles the copy-on-write spine arenas that the rollout step
// (RandomMove) builds candidates on; concurrent rollouts of one engine draw
// separate arenas.
var arenaPool = sync.Pool{New: func() any { return new(difftree.SpineArena) }}

// Moves enumerates d's legal moves — rule pattern matches, the rewrite is
// within the size cap, and every query stays expressible — in deterministic
// order (pre-order paths, rule order), memoized per state. It returns a
// fresh slice, decoded from the move codes the cache keeps; its paths are
// shared with the engine's other move lists, so callers must not modify
// them. A rule is
// tried only on the node kinds its rules.KindMask admits, read from masks
// computed once per engine, and on the node and parent the walk holds
// (rules.Rewrite), so a try walks no path. Only the (rule, path) pair
// survives the legality check, never a candidate tree.
//
// When d is itself legal (one memoized LegalState per miss), a candidate of
// a widening rule (rules.Widens) is judged from the rewritten subtree alone,
// without building the candidate tree: the rewrite keeps every derivation d
// had, so every query stays expressible; its size is d's minus the replaced
// subtree's plus the replacement's; and its structure is valid iff the
// replacement is and, when the replacement's nullability differs from the
// replaced subtree's, the spine stays valid under it
// (difftree.ValidReplace). A shaper (MultiMerge) reports the
// replacement's size and nullability without building the replacement
// either. Every other candidate, and every candidate of a d that is not
// legal, is built on a spine arena and goes through the full
// re-match (fullLegal). Verdicts equal the full re-match oracle's
// (rules.Moves and rules.LegalState remain the reference) as long as no
// re-match exhausts the matcher's backtracking budget. Only the move list
// is memoized, not the verdict of each candidate.
func (e *Engine) Moves(d *difftree.Node) []rules.Move {
	codes, paths := e.moves(d, false)
	return paths.decode(codes)
}

// moves is Moves as move codes, decoded against paths; the caller must not
// modify them. It skips d's LegalState check when the caller knows d to be
// legal. A miss walks d with pooled scratch (moveWalk) and allocates only
// the exactly sized code list it returns, which the cache keeps.
func (e *Engine) moves(d *difftree.Node, legal bool) (codes []uint32, paths *pathTable) {
	h := difftree.Hash(d)
	var k uint64
	if e.cache != nil {
		k = e.key(h)
		if codes, paths, ok := e.cache.probeMoves(k); ok {
			e.cache.count(true)
			return codes, paths
		}
		e.cache.count(false)
	}
	legal = legal || e.LegalState(d)
	w := walkPool.Get().(*moveWalk)
	w.e, w.d, w.legal = e, d, legal
	w.walk(d, nil)
	paths = e.paths()
	for {
		var ok bool
		if codes, ok = paths.encode(e.ruleCodes, w.kept, w.ends, w.flat); ok {
			break
		}
		paths = e.rotatePaths(paths)
	}
	w.release()
	if e.cache != nil {
		e.cache.setMoves(k, codes, paths)
	}
	return codes, paths
}

// paths returns the path table the engine encodes its move lists against.
func (e *Engine) paths() *pathTable {
	if e.cache != nil {
		return e.cache.paths.Load()
	}
	return e.ownPaths.Load()
}

// rotatePaths replaces the full path table old, unless another caller
// already has, with an empty one, and returns the engine's table.
func (e *Engine) rotatePaths(old *pathTable) *pathTable {
	if e.cache != nil {
		return e.cache.rotatePaths(old)
	}
	e.ownPaths.CompareAndSwap(old, newPathTable(old.limit))
	return e.ownPaths.Load()
}

// moveWalk is the scratch of one move enumeration, pooled so that a miss
// allocates none of it: the walk's position and spine arena, and the kept
// moves, move i applying cfg.Rules[kept[i]] at flat[ends[i-1]:ends[i]].
type moveWalk struct {
	e     *Engine
	d     *difftree.Node
	legal bool // d is legal
	arena difftree.SpineArena
	path  difftree.Path
	kept  []int32
	ends  []int32
	flat  []int
}

var walkPool = sync.Pool{New: func() any { return new(moveWalk) }}

// release empties w, keeping its buffers, and returns it to the pool.
func (w *moveWalk) release() {
	w.e, w.d = nil, nil
	w.arena.Reset()
	w.path, w.kept, w.ends, w.flat = w.path[:0], w.kept[:0], w.ends[:0], w.flat[:0]
	walkPool.Put(w)
}

// walk tries every rule the kind mask admits on n, whose parent is parent,
// at w.path, keeping the legal moves, then recurses into n's children.
func (w *moveWalk) walk(n, parent *difftree.Node) {
	e, d, p := w.e, w.d, w.path
	for i, r := range e.cfg.Rules {
		if e.masks[i]&(1<<n.Kind) == 0 {
			continue
		}
		var ok bool
		if w.legal && e.shapers[i] != nil {
			var applies bool
			if ok, applies = e.legalShaped(d, p, n, e.shapers[i]); !applies {
				continue
			}
		} else {
			sub, applies := rules.Rewrite(n, parent, r)
			if !applies {
				continue
			}
			if w.legal && e.widens[i] {
				ok = e.legalWidened(d, p, n, sub)
			} else {
				w.arena.Reset()
				ok = e.fullLegal(w.arena.ReplaceAt(d, p, sub))
			}
		}
		if ok {
			w.flat = append(w.flat, p...)
			w.kept = append(w.kept, int32(i))
			w.ends = append(w.ends, int32(len(w.flat)))
		}
	}
	for i, c := range n.Children {
		w.path = append(w.path, i)
		w.walk(c, n)
		w.path = w.path[:len(w.path)-1]
	}
}

// rolloutTries is the number of (rule, node) draws RandomMove makes before
// it falls back to UniformMove.
const rolloutTries = 48

// RandomMove is the rollout step of the search: it draws random (rule, node)
// candidates, each rule tried only on node kinds its rules.KindMask admits,
// and returns the first legal rewrite of src, falling back to UniformMove
// when all rolloutTries draws miss. src must be legal: the probe relies on
// it (see legalMove). ok is false only when src has no legal move.
//
// Each try makes two draws: the rule, then an index into the rule's
// candidate nodes, which are the pre-order per-kind node lists concatenated
// in fixed Kind order (PathPools, restricted to the mask). The list is never
// materialized: the index picks a kind segment from src's memoized
// difftree.KindCounts, and difftree.NthOfKind descends subtree counts to the
// node, writing its path into a stack buffer and returning the node with
// its parent. The draw sequence never consults the memoization state, so a
// walk is a pure function of (src, rng stream): cached and uncached engines
// take identical walks, the cache only answers the probes faster. A try
// applies the rule once to the drawn node (rules.Rewrite, which rejects a
// non-matching pattern without allocating) and probes the rewritten
// subtree; only the accepted one is spliced into a kept tree, with
// difftree.ReplaceAt.
func (e *Engine) RandomMove(src *difftree.Node, rng *rand.Rand) (*difftree.Node, bool) {
	counts := src.KindCounts()
	var buf [32]int
	for i := 0; i < rolloutTries && len(e.cfg.Rules) > 0; i++ {
		ri := rng.Intn(len(e.cfg.Rules))
		mask := e.masks[ri]
		total := 0
		for k, c := range counts {
			if mask&(1<<k) != 0 {
				total += c
			}
		}
		if total == 0 {
			continue
		}
		idx := rng.Intn(total)
		var k difftree.Kind
		for k = difftree.All; ; k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			if idx < counts[k] {
				break
			}
			idx -= counts[k]
		}
		p, n, parent := difftree.NthOfKind(src, k, idx, buf[:0])
		sub, ok := rules.Rewrite(n, parent, e.cfg.Rules[ri])
		if ok && e.legalMove(src, p, n, sub, ri) {
			return difftree.ReplaceAt(src, p, sub), true
		}
	}
	return e.uniformMove(src, rng, true)
}

// UniformMove draws one of src's legal moves uniformly, by one rng draw
// into Moves, and applies only that move: the successor Neighbors lists at
// the drawn index. ok is false when src has no legal move.
func (e *Engine) UniformMove(src *difftree.Node, rng *rand.Rand) (*difftree.Node, bool) {
	return e.uniformMove(src, rng, false)
}

// uniformMove is UniformMove; legal reports that the caller knows src to be
// legal, as RandomMove's fallback does, so Moves need not check it.
func (e *Engine) uniformMove(src *difftree.Node, rng *rand.Rand, legal bool) (*difftree.Node, bool) {
	codes, paths := e.moves(src, legal)
	if len(codes) == 0 {
		return nil, false
	}
	next, err := rules.ApplyMove(src, paths.move(codes[rng.Intn(len(codes))]))
	return next, err == nil
}

// legalMove is RandomMove's legality probe: LegalState of the tree built
// from the legal state src by replacing its subtree n at p with sub, the
// result of applying Config.Rules[ruleIndex] to n. The verdict is
// unspecified when src is not legal. A widening rule's candidate is judged
// from n and sub alone, without building the candidate tree, hashing it or
// touching the cache (see Moves); any other candidate is built on a pooled
// spine arena and goes through the memoized LegalState.
func (e *Engine) legalMove(src *difftree.Node, p difftree.Path, n, sub *difftree.Node, ruleIndex int) bool {
	if e.widens[ruleIndex] {
		return e.legalWidened(src, p, n, sub)
	}
	arena := arenaPool.Get().(*difftree.SpineArena)
	defer func() {
		arena.Reset()
		arenaPool.Put(arena)
	}()
	return e.LegalState(arena.ReplaceAt(src, p, sub))
}

// legalWidened is fullLegal for the tree a widening rule builds from the
// legal state src by rewriting its subtree n at p into sub: the size gate
// and the structural checks the edit can break, read from src, n and sub.
func (e *Engine) legalWidened(src *difftree.Node, p difftree.Path, n, sub *difftree.Node) bool {
	return e.fits(src.Size()-n.Size()+sub.Size()) && difftree.ValidReplace(src, p, n, sub)
}

// legalShaped is legalWidened for the rule s applied to src's subtree n at
// p, judged from s.Shape without building the replacement: a shaper's
// replacement of a node of a valid tree is valid, so only the size gate and
// the spine's check under a nullability flip remain. applies is false when
// s does not apply to n.
func (e *Engine) legalShaped(src *difftree.Node, p difftree.Path, n *difftree.Node, s shaper) (legal, applies bool) {
	size, nullable, applies := s.Shape(n)
	if !applies {
		return false, false
	}
	return e.fits(src.Size()-n.Size()+size) && difftree.ValidNullable(src, p, nullable), true
}

// fits reports whether a state of the given size is within the size cap.
func (e *Engine) fits(size int) bool {
	return e.cfg.SizeCap <= 0 || size <= e.cfg.SizeCap
}

// PathPools returns d's node paths grouped by node kind, each group in
// pre-order. It is not memoized: RandomMove draws its node with
// difftree.NthOfKind from memoized per-node kind counts, and PathPools, a
// plain walk, is the reference oracle for that draw: pools[k][j] equals
// the path difftree.NthOfKind(d, k, j, nil) returns. All paths share one
// exactly-sized backing array.
func (e *Engine) PathPools(d *difftree.Node) [4][]difftree.Path {
	var counts [4]int
	total := 0
	difftree.WalkPath(d, func(n *difftree.Node, p difftree.Path) bool {
		counts[n.Kind]++
		total += len(p)
		return true
	})
	var pools [4][]difftree.Path
	for kind, c := range counts {
		if c > 0 {
			pools[kind] = make([]difftree.Path, 0, c)
		}
	}
	flat := make([]int, 0, total) // exact capacity: subslices stay valid
	difftree.WalkPath(d, func(n *difftree.Node, p difftree.Path) bool {
		off := len(flat)
		flat = append(flat, p...)
		pools[n.Kind] = append(pools[n.Kind], difftree.Path(flat[off:len(flat):len(flat)]))
		return true
	})
	return pools
}

// Neighbors applies every legal move of d, returning the successor states
// in the same deterministic order as Moves.
func (e *Engine) Neighbors(d *difftree.Node) []*difftree.Node {
	codes, paths := e.moves(d, false)
	out := make([]*difftree.Node, 0, len(codes))
	for _, c := range codes {
		next, err := rules.ApplyMove(d, paths.move(c))
		if err != nil {
			continue
		}
		out = append(out, next)
	}
	return out
}
