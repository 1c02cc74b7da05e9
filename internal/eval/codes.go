package eval

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/difftree"
	"repro/internal/rules"
)

// A move list is kept as move codes, one uint32 per move: the move's
// rule-name id in the top 8 bits and its path id in the low 24. A code
// holds no pointer, so the garbage collector never marks a cached list, and
// a list takes 4 bytes a move where a []rules.Move takes 40.
//
// Rule-name ids index ruleNames, one table for the process: rule names are
// static (rules.ByName), so it holds a dozen or so. Path ids index a
// pathTable. A Cache owns one, which every engine attached to it encodes
// against, so engines read each other's lists and share one copy of each
// path; an uncached engine keeps its own. A path table is bounded: once
// full, it is replaced by an empty one (see Cache.rotatePaths), and a code
// always decodes against the table it was encoded against.
const (
	pathIDBits = 24
	maxRuleIDs = 1 << (32 - pathIDBits)
	maxPathIDs = 1 << pathIDBits
	pathIDMask = maxPathIDs - 1
)

// Path-table limits. A table's limit is its owner's entry bound clamped to
// [minPathLimit, maxPathLimit]: a path takes about 80 bytes and an entry
// with a move list several hundred, so a full table stays a fraction of a
// full cache. A table counts as full once it reaches its limit, but takes
// the whole list it was encoding then: at least maxPathIDs-maxPathLimit ids
// are left for that list, which only a state of millions of nodes could use
// up.
const (
	minPathLimit = 1 << 16
	maxPathLimit = maxPathIDs / 2
)

func pathLimit(maxEntries int) int { return min(max(maxEntries, minPathLimit), maxPathLimit) }

// Paths are stored in fixed-size chunks, so the table grows without moving
// the paths readers index, and in slabs of step ints each path is an exactly
// sized window of.
const (
	pathChunkBits = 10
	pathChunkMask = 1<<pathChunkBits - 1
	pathSlabInts  = 1 << 12
)

type pathChunk [1 << pathChunkBits]difftree.Path

// nameTable interns rule names. Interning takes mu; decoding takes no lock.
// A name is written under mu before any code naming it exists, and a code
// reaches another goroutine only after that through a lock, so a reader
// holding a code sees its name.
type nameTable struct {
	mu    sync.Mutex
	ids   map[string]uint32 // guarded by mu
	names [maxRuleIDs]string
}

var ruleNames nameTable

// codes returns the code bits (rule-name id, shifted into place) of each
// rule of set, interning the names; ok is false when they do not all fit.
func (t *nameTable) codes(set []rules.Rule) (codes []uint32, ok bool) {
	codes = make([]uint32, len(set))
	for i, r := range set {
		id, ok := t.intern(r.Name())
		if !ok {
			return nil, false
		}
		codes[i] = id << pathIDBits
	}
	return codes, true
}

// intern returns name's id, adding it when new; ok is false when the table
// is full.
func (t *nameTable) intern(name string) (uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id, true
	}
	id := len(t.ids)
	if id == maxRuleIDs {
		return 0, false
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	t.names[id] = name
	t.ids[name] = uint32(id)
	return uint32(id), true
}

// pathTable interns the paths move codes name. Interning takes mu; decoding
// takes no lock, by the argument nameTable makes. Its memory is linear in
// the paths it holds: a pointer-free open-addressed index of ids, the paths
// in slabs and the chunks that index them.
type pathTable struct {
	limit int // the table is full once it holds this many paths

	mu    sync.Mutex
	n     int      // guarded by mu: paths interned
	index []uint32 // guarded by mu: id + 1 per slot, 0 when free; at most half full
	slab  []int    // guarded by mu: the unused tail of the current slab

	chunks atomic.Pointer[[]*pathChunk]
}

func newPathTable(limit int) *pathTable { return &pathTable{limit: limit} }

// hashPath scatters a path's steps over the index.
func hashPath(p []int) uint64 {
	h := uint64(len(p))
	for _, s := range p {
		h = (h ^ uint64(s)) * 0x9e3779b97f4a7c15
	}
	return mix64(h)
}

// path returns the path with the given id, which must be interned.
func (t *pathTable) path(id uint32) difftree.Path {
	dir := *t.chunks.Load()
	return dir[id>>pathChunkBits][id&pathChunkMask]
}

// internPath returns p's id, adding one exactly sized copy of p when new.
// The caller holds t.mu.
func (t *pathTable) internPath(p []int) uint32 {
	if 2*(t.n+1) > len(t.index) {
		t.grow()
	}
	mask := uint64(len(t.index) - 1)
	i := hashPath(p) & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if id := t.index[i] - 1; slices.Equal(t.path(id), p) {
			return id
		}
	}
	id := t.n
	if id == maxPathIDs {
		panic(fmt.Sprintf("eval: a move list names more than %d paths", maxPathIDs-maxPathLimit))
	}
	if len(p) > len(t.slab) {
		t.slab = make([]int, max(pathSlabInts, len(p)))
	}
	path := difftree.Path(t.slab[:len(p):len(p)])
	copy(path, p)
	t.slab = t.slab[len(p):]
	var dir []*pathChunk
	if d := t.chunks.Load(); d != nil {
		dir = *d
	}
	if id&pathChunkMask == 0 {
		// Readers may hold the old directory: publish a new one.
		dir = append(slices.Clip(dir), new(pathChunk))
		t.chunks.Store(&dir)
	}
	dir[id>>pathChunkBits][id&pathChunkMask] = path
	t.n++
	t.index[i] = uint32(id) + 1
	return uint32(id)
}

// grow doubles the index and reinserts every id. The caller holds t.mu.
func (t *pathTable) grow() {
	t.index = make([]uint32, max(1024, 2*len(t.index)))
	mask := uint64(len(t.index) - 1)
	for id := uint32(0); id < uint32(t.n); id++ {
		i := hashPath(t.path(id)) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = id + 1
	}
}

// encode returns the codes of a move list whose move i applies the rule
// with code bits ruleCodes[kept[i]] at the path flat[ends[i-1]:ends[i]],
// interning the paths, in one exactly sized allocation that aliases none of
// its arguments; ok is false when the table is full. An empty table takes
// any list.
func (t *pathTable) encode(ruleCodes []uint32, kept, ends []int32, flat []int) ([]uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= t.limit {
		return nil, false
	}
	codes := make([]uint32, len(kept))
	start := int32(0)
	for i, ri := range kept {
		codes[i] = ruleCodes[ri] | t.internPath(flat[start:ends[i]])
		start = ends[i]
	}
	return codes, true
}

// encodeMoves returns the codes of ms, interning its rule names and paths;
// ok is false when the table is full or a name does not fit ruleNames.
func (t *pathTable) encodeMoves(ms []rules.Move) ([]uint32, bool) {
	codes := make([]uint32, len(ms))
	for i, m := range ms {
		name, ok := ruleNames.intern(m.Rule)
		if !ok {
			return nil, false
		}
		codes[i] = name << pathIDBits
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= t.limit {
		return nil, false
	}
	for i, m := range ms {
		codes[i] |= t.internPath(m.Path)
	}
	return codes, true
}

// move decodes one code. Its path is the table's copy: the caller must not
// modify it.
func (t *pathTable) move(code uint32) rules.Move {
	return rules.Move{Rule: ruleNames.names[code>>pathIDBits], Path: t.path(code & pathIDMask)}
}

// decode returns codes as a fresh move list whose paths are the table's.
func (t *pathTable) decode(codes []uint32) []rules.Move {
	ms := make([]rules.Move, len(codes))
	for i, c := range codes {
		ms[i] = t.move(c)
	}
	return ms
}
