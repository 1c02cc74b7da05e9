package eval

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"

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
// compares against. The Engine itself holds no state beyond the cache, and
// is safe for concurrent use.
type Engine struct {
	cfg   Config
	cache *Cache
	fp    uint64 // configuration fingerprint, mixed into every cache key

	// masks[i] is rules.KindMask(cfg.Rules[i]); widens[i] is
	// rules.Widens(cfg.Rules[i]).
	masks  []uint8
	widens []bool
}

// New builds an engine over cfg, memoizing into cache (nil = uncached).
func New(cfg Config, cache *Cache) *Engine {
	e := &Engine{cfg: cfg, cache: cache, fp: fingerprint(cfg)}
	e.masks = make([]uint8, len(cfg.Rules))
	e.widens = make([]bool, len(cfg.Rules))
	for i, r := range cfg.Rules {
		e.masks[i] = rules.KindMask(r)
		e.widens[i] = rules.Widens(r)
	}
	if cache != nil {
		cache.noteFingerprint(e.fp)
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

// Samples returns the configured per-state assignment sample count k.
func (e *Engine) Samples() int { return e.cfg.Samples }

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
		if v, ok := e.cache.Probe(k); ok && v.HasCost {
			e.cache.Count(true)
			return v.Cost
		}
		e.cache.Count(false)
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
// runs the full re-match oracle, rules.LegalState.
func (e *Engine) LegalState(d *difftree.Node) bool {
	h := difftree.Hash(d)
	var k uint64
	if e.cache != nil {
		k = e.key(h)
		if v, ok := e.cache.Probe(k); ok && v.HasLegal {
			e.cache.Count(true)
			return v.Legal
		}
		e.cache.Count(false)
	}
	v := e.fullLegal(d)
	if e.cache != nil {
		e.cache.SetLegal(k, v)
	}
	return v
}

// fullLegal is the unmemoized LegalState verdict: the size gate, then the
// full re-match oracle.
func (e *Engine) fullLegal(d *difftree.Node) bool {
	return (e.cfg.SizeCap <= 0 || d.Size() <= e.cfg.SizeCap) && rules.LegalState(d, e.cfg.Log)
}

// arenaPool recycles the copy-on-write spine arenas Moves and LegalMove
// build candidates on.
var arenaPool = sync.Pool{New: func() any { return new(difftree.SpineArena) }}

// Moves enumerates d's legal moves — rule pattern matches, the rewrite is
// within the size cap, and every query stays expressible — in deterministic
// order (pre-order paths, rule order), memoized per state. The returned
// slice is shared with the cache; callers must not modify it. A rule is
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
// replacement is, unless the replacement's nullability differs from the
// replaced subtree's (difftree.SpineArena.ValidReplace). Every other
// candidate, and every candidate of a d that is not legal, is built on a
// pooled spine arena and goes through the full re-match. Verdicts equal the
// full re-match oracle's (rules.Moves and rules.LegalState remain the
// reference) as long as no re-match of a widened tree would exhaust the
// matcher's backtracking budget. Only the move list is memoized, not the
// verdict of each candidate.
func (e *Engine) Moves(d *difftree.Node) []rules.Move {
	h := difftree.Hash(d)
	var k uint64
	if e.cache != nil {
		k = e.key(h)
		if v, ok := e.cache.Probe(k); ok && v.HasMoves {
			e.cache.Count(true)
			return v.Moves
		}
		e.cache.Count(false)
	}
	legal := e.LegalState(d)
	arena := arenaPool.Get().(*difftree.SpineArena)
	var out []rules.Move
	var ends, flat []int // the kept paths back to back, out[i]'s ending at ends[i]
	var buf [16]int
	p := difftree.Path(buf[:0])
	var walk func(n, parent *difftree.Node)
	walk = func(n, parent *difftree.Node) {
		for i, r := range e.cfg.Rules {
			if e.masks[i]&(1<<n.Kind) == 0 {
				continue
			}
			sub, ok := rules.Rewrite(n, parent, r)
			if !ok {
				continue
			}
			arena.Reset()
			if legal && e.widens[i] {
				ok = e.legalWidened(d, p, n, sub, arena)
			} else {
				ok = e.fullLegal(arena.ReplaceAt(d, p, sub))
			}
			if ok {
				flat = append(flat, p...)
				out = append(out, rules.Move{Rule: r.Name()})
				ends = append(ends, len(flat))
			}
		}
		for i, c := range n.Children {
			p = append(p, i)
			walk(c, n)
			p = p[:len(p)-1]
		}
	}
	walk(d, nil)
	arena.Reset()
	arenaPool.Put(arena)
	// The cache keeps the list: size it exactly, with every path in one
	// exactly sized array.
	out = slices.Clone(out)
	flat = slices.Clone(flat)
	start := 0
	for i, end := range ends {
		out[i].Path = flat[start:end:end]
		start = end
	}
	if e.cache != nil {
		e.cache.SetMoves(k, out)
	}
	return out
}

// LegalMove is the rollout's legality probe: LegalState of the tree built
// from src by replacing its subtree n at p with sub, the result of applying
// Config.Rules[ruleIndex] to n (rules.Rewrite). The caller hands in the node
// it drew, so the probe walks no path for it, and must guarantee that src is
// legal; the verdict is unspecified otherwise. A widening rule's candidate
// is judged from n and sub alone, without building the candidate tree,
// hashing it or touching the cache (see Moves); any other candidate is built
// on a pooled spine arena and goes through the memoized LegalState. The
// caller that keeps the candidate builds it with difftree.ReplaceAt.
func (e *Engine) LegalMove(src *difftree.Node, p difftree.Path, n, sub *difftree.Node, ruleIndex int) bool {
	arena := arenaPool.Get().(*difftree.SpineArena)
	defer func() {
		arena.Reset()
		arenaPool.Put(arena)
	}()
	if e.widens[ruleIndex] {
		return e.legalWidened(src, p, n, sub, arena)
	}
	return e.LegalState(arena.ReplaceAt(src, p, sub))
}

// legalWidened is fullLegal for the tree a widening rule builds from the
// legal state src by rewriting its subtree n at p into sub: the size gate
// and the structural checks the edit can break, read from src, n and sub.
// The arena holds a spine only when ValidReplace needs one.
func (e *Engine) legalWidened(src *difftree.Node, p difftree.Path, n, sub *difftree.Node, arena *difftree.SpineArena) bool {
	return (e.cfg.SizeCap <= 0 || src.Size()-n.Size()+sub.Size() <= e.cfg.SizeCap) && arena.ValidReplace(src, p, n, sub)
}

// PathPools returns d's node paths grouped by node kind, each group in
// pre-order. It is not memoized: core's rollout draws its node with
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
	ms := e.Moves(d)
	out := make([]*difftree.Node, 0, len(ms))
	for _, m := range ms {
		next, err := rules.ApplyMove(d, m)
		if err != nil {
			continue
		}
		out = append(out, next)
	}
	return out
}
