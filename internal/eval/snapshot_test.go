package eval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/workload"
)

// warmFigure1Cache runs the Figure 1 workload's hot primitives through a
// fresh cache and returns it together with the engine's (key, cost) pairs
// for later comparison.
func warmFigure1Cache(t *testing.T) (*Cache, *Engine, map[uint64]float64) {
	t.Helper()
	c := NewCache(0)
	eng := figure1Engine(t, c)
	init, err := difftree.Initial(eng.cfg.Log)
	if err != nil {
		t.Fatal(err)
	}
	costs := make(map[uint64]float64)
	// Walk two plies of neighbors: enough states for a meaningful snapshot.
	frontier := []*difftree.Node{init}
	for depth := 0; depth < 2 && len(costs) < 200; depth++ {
		var next []*difftree.Node
		for _, d := range frontier {
			costs[eng.key(difftree.Hash(d))] = eng.StateCost(d)
			eng.LegalState(d)
			next = append(next, eng.Neighbors(d)...)
		}
		frontier = next
	}
	if len(costs) < 3 {
		t.Fatalf("expected a non-trivial warm set, got %d states", len(costs))
	}
	return c, eng, costs
}

func snapshotBytes(t *testing.T, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := c.Snapshot(&buf)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n <= 0 {
		t.Fatalf("Snapshot exported %d entries", n)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, _, costs := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)

	dst := NewCache(0)
	n, err := dst.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if n <= 0 {
		t.Fatalf("imported %d entries", n)
	}
	for key, want := range costs {
		got, ok := cachedCost(dst, key)
		if !ok {
			t.Fatalf("key %#x missing after import", key)
		}
		if got != want {
			t.Fatalf("key %#x: imported cost %v != original %v", key, got, want)
		}
	}
}

// TestSnapshotIndependentOfAttachedConfigs: a snapshot carries entries
// only, so a cache that 10 000 engine configurations have used writes the
// same bytes as one that a single configuration has used, and loads them.
func TestSnapshotIndependentOfAttachedConfigs(t *testing.T) {
	fill := func(c *Cache) {
		for k := uint64(1); k <= 64; k++ {
			c.SetCost(k, float64(k)/4)
			c.SetLegal(k, k%3 != 0)
		}
	}
	log := workload.PaperFigure1Log()
	cfg := func(seed int64) Config {
		return Config{Log: log, Model: cost.Default(layout.Wide), Samples: 3, Rules: rules.All(), Seed: seed}
	}
	one, many := NewCache(0), NewCache(0)
	New(cfg(1), one)
	for seed := int64(1); seed <= 10000; seed++ {
		New(cfg(seed), many)
	}
	fill(one)
	fill(many)
	want, got := snapshotBytes(t, one), snapshotBytes(t, many)
	if !bytes.Equal(got, want) {
		t.Fatalf("a cache used by 10000 configurations writes %d bytes, one used by a single configuration %d", len(got), len(want))
	}
	dst := NewCache(0)
	if n, err := dst.LoadSnapshot(bytes.NewReader(got)); err != nil || n != 64 {
		t.Fatalf("LoadSnapshot: %d entries, %v; want 64", n, err)
	}
}

func TestSnapshotImportIdempotentAndFirstWriteWins(t *testing.T) {
	src, _, costs := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)

	dst := NewCache(0)
	// Pre-populate one key with a sentinel value: import must not clobber it.
	var anyKey uint64
	for k := range costs {
		anyKey = k
		break
	}
	dst.SetCost(anyKey, 12345.5)

	before := dst.Stats().Entries
	_ = before
	if _, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("first import: %v", err)
	}
	entries1 := dst.Stats().Entries
	if _, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("second import: %v", err)
	}
	if entries2 := dst.Stats().Entries; entries2 != entries1 {
		t.Fatalf("re-import changed occupancy: %d -> %d", entries1, entries2)
	}
	if got, _ := cachedCost(dst, anyKey); got != 12345.5 {
		t.Fatalf("import clobbered a pre-existing entry: got %v, want sentinel 12345.5", got)
	}
}

func TestSetCostFirstWriteWins(t *testing.T) {
	c := NewCache(0)
	c.SetCost(7, 1.5)
	c.SetCost(7, 99)
	if v, ok := cachedCost(c, 7); !ok || v != 1.5 {
		t.Fatalf("SetCost overwrote: got %v, want 1.5", v)
	}
	c.SetLegal(7, true)
	c.SetLegal(7, false)
	if v, ok := c.probe(7); !ok || v.legal != 1 {
		t.Fatalf("SetLegal overwrote: got legal=%v, want 1", v.legal)
	}
}

func TestSnapshotTruncationNeverPanics(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	for cut := 0; cut < len(raw); cut += 1 + cut/16 {
		dst := NewCache(0)
		n, err := dst.LoadSnapshot(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
		if n != 0 {
			t.Fatalf("truncation at %d imported %d entries", cut, n)
		}
		if got := dst.Stats().Entries; got != 0 {
			t.Fatalf("truncation at %d left %d entries in the cache", cut, got)
		}
	}
}

func TestSnapshotCorruptionRejectedBeforeInsert(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	// Flip one byte in the entry region (past magic + kind table) — the
	// checksum must catch it, and nothing may land in the cache.
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)/2] ^= 0xff
	dst := NewCache(0)
	_, err := dst.LoadSnapshot(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("corrupt snapshot: unexpected error class %v", err)
	}
	if got := dst.Stats().Entries; got != 0 {
		t.Fatalf("corrupt snapshot planted %d entries", got)
	}
}

func TestSnapshotBadMagicRejected(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	raw[0] ^= 0x01
	if _, err := NewCache(0).LoadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("bad magic: got %v, want ErrSnapshotFormat", err)
	}
}

func TestSnapshotKindGuard(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	names := ast.KindNames()

	// A snapshot claiming more kinds than this build knows: written by a
	// newer grammar, must be rejected as a schema mismatch.
	newer := bytes.Clone(raw)
	binary.LittleEndian.PutUint16(newer[8:10], uint16(len(names)+1))
	if _, err := NewCache(0).LoadSnapshot(bytes.NewReader(newer)); !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("newer-grammar snapshot: got %v, want ErrSnapshotSchema", err)
	}

	// A renamed kind at the same index: numbering changed, must be rejected.
	// Kind 0 is "Invalid"; its name bytes start at offset 8+2+1.
	renamed := bytes.Clone(raw)
	renamed[11] ^= 0x20 // "Invalid" -> "invalid"
	_, err := NewCache(0).LoadSnapshot(bytes.NewReader(renamed))
	if !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("renamed-kind snapshot: got %v, want ErrSnapshotSchema", err)
	}
}

func TestSnapshotImportIntoSmallerCacheEvicts(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	exported := src.Stats().Entries

	// One slot per shard: far smaller than the snapshot.
	small := NewCache(shardCount)
	n, err := small.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadSnapshot into small cache: %v", err)
	}
	if n != exported {
		t.Fatalf("import processed %d entries, snapshot had %d", n, exported)
	}
	st := small.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", st.Entries, st.Capacity)
	}
}

func TestSnapshotSkipsNonPortableAspects(t *testing.T) {
	c := NewCache(0)
	// Move sets are (rule name, path) lists and travel; one naming a rule
	// outside the table does not encode, so a moves-only entry holding it
	// must not appear at all.
	ms := []rules.Move{{Rule: "Wrap", Path: difftree.Path{0, 2}}, {Rule: "Any2All", Path: nil}}
	setMoveList(t, c, 1, ms)
	setMoveList(t, c, 2, []rules.Move{{Rule: "NoSuchRule", Path: nil}})
	c.SetCost(3, 7)
	var buf bytes.Buffer
	n, err := c.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("exported %d entries, want 2 (moves-only and cost-only)", n)
	}
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, ok := cachedCost(dst, 3); !ok || v != 7 {
		t.Fatalf("cost entry lost: %v %v", v, ok)
	}
	if got, ok := cachedMoves(dst, 1); !ok || !sameMoves(got, ms) {
		t.Fatalf("moves entry = %v %v, want %v", got, ok, ms)
	}
	if got, ok := dst.probe(2); ok && got.hasMoves {
		t.Fatal("an unencodable move set travelled across the snapshot")
	}
}

// TestSnapshotCarriesMoves: a restored cache answers Moves for every state
// the source enumerated, with the same move list, without enumerating.
func TestSnapshotCarriesMoves(t *testing.T) {
	src, eng, _ := warmFigure1Cache(t)
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(snapshotBytes(t, src))); err != nil {
		t.Fatal(err)
	}
	init, err := difftree.Initial(eng.cfg.Log)
	if err != nil {
		t.Fatal(err)
	}
	restored := New(eng.cfg, dst)
	checked := 0
	for _, d := range append([]*difftree.Node{init}, eng.Neighbors(init)...) {
		wantMoves, ok := cachedMoves(src, eng.key(difftree.Hash(d)))
		if !ok {
			continue
		}
		checked++
		got, ok := cachedMoves(dst, restored.key(difftree.Hash(d)))
		if !ok || !sameMoves(got, wantMoves) {
			t.Fatalf("restored moves of %s = %v %v, want %v", d, got, ok, wantMoves)
		}
		if !sameMoves(restored.Moves(d), wantMoves) {
			t.Fatalf("restored engine Moves of %s differ", d)
		}
	}
	if checked < 2 {
		t.Fatalf("only %d states carried moves", checked)
	}
}

// TestSnapshotImportMemoryLinear: an import's heap is linear in what it
// carries, whatever its path steps. The snapshot holds one list of 64
// moves at paths [a, 65535]: 400 bytes of moves. Interning them in a trie
// whose nodes index their children densely took 512 KiB a move.
func TestSnapshotImportMemoryLinear(t *testing.T) {
	const moves = 64
	ms := make([]rules.Move, moves)
	for a := range ms {
		ms[a] = rules.Move{Rule: "Unwrap", Path: difftree.Path{a, math.MaxUint16}}
	}
	src := NewCache(0)
	setMoveList(t, src, 1, ms)
	snap := snapshotBytes(t, src)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got, ok := cachedMoves(dst, 1); !ok || !sameMoves(got, ms) {
		t.Fatalf("imported moves = %v %v, want %v", got, ok, ms)
	}
	runtime.KeepAlive(dst)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("importing %d bytes grew the heap by %d bytes", len(snap), grew)
	}
}

// TestSnapshotImportStopsAtPathLimit: an import interns paths only until
// the cache's path table is full; the move lists past that are left to be
// recomputed, while every entry's other aspects still land.
func TestSnapshotImportStopsAtPathLimit(t *testing.T) {
	const entries, limit = 64, 16
	src := NewCache(0)
	for k := uint64(0); k < entries; k++ {
		src.SetCost(k, float64(k))
		setMoveList(t, src, k, []rules.Move{{Rule: "Unwrap", Path: difftree.Path{int(k), 1}}})
	}
	dst := NewCache(0)
	dst.paths.Store(newPathTable(limit))
	if _, err := dst.LoadSnapshot(bytes.NewReader(snapshotBytes(t, src))); err != nil {
		t.Fatal(err)
	}
	withMoves := 0
	for k := uint64(0); k < entries; k++ {
		if v, ok := cachedCost(dst, k); !ok || v != float64(k) {
			t.Fatalf("entry %d lost its cost: %v %v", k, v, ok)
		}
		if got, ok := cachedMoves(dst, k); ok {
			if want := src.paths.Load().decode(mustCodes(t, src, k)); !sameMoves(got, want) {
				t.Fatalf("entry %d: moves %v, want %v", k, got, want)
			}
			withMoves++
		}
	}
	if n := dst.paths.Load().n; n != limit || withMoves != limit {
		t.Fatalf("the import interned %d paths for %d lists, want %d", n, withMoves, limit)
	}
}

// mustCodes returns key's cached move codes.
func mustCodes(t *testing.T, c *Cache, key uint64) []uint32 {
	t.Helper()
	codes, _, ok := c.probeMoves(key)
	if !ok {
		t.Fatalf("no move list cached at %d", key)
	}
	return codes
}

// TestSnapshotReexportIdentical: a snapshot imported into an empty cache
// exports again byte for byte: the move codes decode to the lists that were
// written, and entries land in their shards in file order.
func TestSnapshotReexportIdentical(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if again := snapshotBytes(t, dst); !bytes.Equal(again, raw) {
		t.Fatalf("re-export differs: %d bytes, first export %d", len(again), len(raw))
	}
}

// TestSnapshotFromRuleMoveLists loads testdata/figure1-rulemoves.snap,
// written by the cache while it held move lists as []rules.Move: the Figure
// 1 engine's (figure1Engine) costs and move lists of the initial state and
// its neighbors, converted to the current format (which only dropped a
// section). The format did not change with the move codes, so it must load, answer Moves for those states from the cache with the lists it
// carries, which equal the uncached engine's, and export again byte for
// byte.
func TestSnapshotFromRuleMoveLists(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figure1-rulemoves.snap"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[uint64][]rules.Move)
	for _, r := range rows {
		if r.flags&snapHasMoves != 0 {
			written[r.key] = r.moves
		}
	}
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	restored, ref := figure1Engine(t, dst), figure1Engine(t, nil)
	init, err := difftree.Initial(ref.cfg.Log)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range append([]*difftree.Node{init}, ref.Neighbors(init)...) {
		ms, ok := written[restored.key(difftree.Hash(d))]
		if !ok {
			continue
		}
		checked++
		misses := dst.Stats().Misses
		got := restored.Moves(d)
		if dst.Stats().Misses != misses {
			t.Fatalf("Moves of %s missed a cache that carries its list", d)
		}
		if want := ref.Moves(d); !sameMoves(got, ms) || !sameMoves(got, want) {
			t.Fatalf("Moves of %s = %v; the snapshot carries %v, the uncached engine lists %v", d, got, ms, want)
		}
	}
	if checked != len(written) || checked < 2 {
		t.Fatalf("%d of the snapshot's %d move lists belong to the states checked", checked, len(written))
	}
	if again := snapshotBytes(t, dst); !bytes.Equal(again, raw) {
		t.Fatalf("re-export differs: %d bytes, file %d", len(again), len(raw))
	}
}

// retiredSnapshot encodes cost entries in a retired format: version 1
// ("mcuisnp1": no rule table and no move sets) or version 2 ("mcuisnp2":
// the current layout plus a fingerprint section after the rule table).
func retiredSnapshot(version int, costs map[uint64]float64) []byte {
	var body bytes.Buffer
	u := func(v uint64, n int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		body.Write(b[:n])
	}
	names := ast.KindNames()
	u(uint64(len(names)), 2)
	for _, name := range names {
		u(uint64(len(name)), 1)
		body.WriteString(name)
	}
	if version >= 2 {
		all := rules.All()
		u(uint64(len(all)), 2)
		for _, r := range all {
			u(uint64(len(r.Name())), 1)
			body.WriteString(r.Name())
		}
	}
	u(1, 4) // one fingerprint
	u(0xd2447eb63f937213, 8)
	u(1, 4) // one block
	u(uint64(len(costs)), 4)
	for key, cost := range costs {
		u(key, 8)
		u(snapHasCost, 1)
		u(math.Float64bits(cost), 8)
	}
	h := fnv.New64a()
	h.Write(body.Bytes())
	out := append([]byte(fmt.Sprintf("mcuisnp%d", version)), body.Bytes()...)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// TestSnapshotVersion1Rejected: a well-formed version 1 snapshot is a
// format error that imports nothing, so a daemon holding one starts cold.
func TestSnapshotVersion1Rejected(t *testing.T) {
	testRetiredSnapshotRejected(t, 1)
}

// TestSnapshotVersion2Rejected: so is a well-formed version 2 snapshot.
func TestSnapshotVersion2Rejected(t *testing.T) {
	testRetiredSnapshotRejected(t, 2)
}

func testRetiredSnapshotRejected(t *testing.T, version int) {
	dst := NewCache(0)
	n, err := dst.LoadSnapshot(bytes.NewReader(retiredSnapshot(version, map[uint64]float64{5: 2.5})))
	if !errors.Is(err, ErrSnapshotFormat) || n != 0 {
		t.Fatalf("version %d import: %d entries, %v; want 0, ErrSnapshotFormat", version, n, err)
	}
	if got := dst.Stats().Entries; got != 0 {
		t.Fatalf("rejected version %d import planted %d entries", version, got)
	}
}

// TestSnapshotRuleGuard: a snapshot whose rule table names a rule this
// build does not have is a schema mismatch, not an import.
func TestSnapshotRuleGuard(t *testing.T) {
	c := NewCache(0)
	setMoveList(t, c, 1, []rules.Move{{Rule: "Any2All", Path: difftree.Path{1}}})
	raw := snapshotBytes(t, c)
	off := len(snapMagic) + 2
	for _, name := range ast.KindNames() {
		off += 1 + len(name)
	}
	// The rule table follows the kind table: u16 count, then the first
	// rule's length byte and name.
	raw[off+2+1] ^= 0x20
	if _, err := NewCache(0).LoadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("unknown-rule snapshot: got %v, want ErrSnapshotSchema", err)
	}
}

func TestSnapshotPreservesSpecialFloats(t *testing.T) {
	c := NewCache(0)
	c.SetCost(1, math.Inf(1)) // illegal-assignment states cost +Inf
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, ok := cachedCost(dst, 1); !ok || !math.IsInf(v, 1) {
		t.Fatalf("+Inf did not round-trip: %v %v", v, ok)
	}
}

func TestSnapshotFileAtomicRoundTrip(t *testing.T) {
	src, _, costs := warmFigure1Cache(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	n, err := SaveSnapshotFile(src, path)
	if err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	if n <= 0 {
		t.Fatalf("saved %d entries", n)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	dst := NewCache(0)
	if _, err := LoadSnapshotFile(dst, path); err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	for key, want := range costs {
		if got, ok := cachedCost(dst, key); !ok || got != want {
			t.Fatalf("key %#x: %v (ok=%v), want %v", key, got, ok, want)
		}
	}
	// Overwrite must go through the same atomic path.
	if _, err := SaveSnapshotFile(src, path); err != nil {
		t.Fatalf("re-save: %v", err)
	}
}

func TestLoadSnapshotFileMissing(t *testing.T) {
	if _, err := LoadSnapshotFile(NewCache(0), filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}
