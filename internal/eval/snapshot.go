package eval

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/rules"
)

// Cache snapshots make the warm transposition cache portable: because state
// evaluation is a pure function of (config, state) and every key mixes the
// configuration fingerprint, a cost, legality or move-set entry computed
// by one process is identical to what any other process running the same
// code would compute — so a snapshot shipped to a fresh replica, or
// reloaded after a restart, answers from the first request at warm speed
// without ever being able to change a result.
//
// Cost, legality and move sets travel: every aspect a cache entry holds.
// A move set is a list of (rule name, path) pairs, written against a
// rule-name table: the cache's move codes are decoded on export and
// encoded against the importing cache's path table on import.
//
// Binary format (all integers little-endian):
//
//	magic   [8]byte "mcuisnp3"        version is part of the magic
//	─ the region below is covered by the trailing checksum ─
//	kinds   u16 count, then per kind: u8 len + name bytes
//	rules   u16 count, then per rule: u8 len + name bytes
//	blocks  u32 count, then per block: u32 entries, then per entry:
//	          key u64, flags u8, cost f64 (present iff flags&snapHasCost),
//	          moves (present iff flags&snapHasMoves): u16 count, then per
//	          move: u8 rule-table index, u8 path length, u16 per path step
//	─ end of checksummed region ─
//	sum     u64 FNV-64a of the checksummed region
//
// Any other magic, including the retired versions 1 ("mcuisnp1", without
// the rule table and move sets) and 2 ("mcuisnp2", with a section listing
// the fingerprints of the configurations that had used the cache), is
// rejected with ErrSnapshotFormat: snapshots are a cache, so a daemon
// starts cold and rewrites the file. Every rule in the table must be one
// this build knows (rules.ByName), or the snapshot is rejected with
// ErrSnapshotSchema: its move sets would name rewrites that do not exist.
//
// The kind table is the ast.Kind-numbering guard: LoadSnapshot verifies
// that every kind the snapshot was built against still maps to the same
// number and name. Appending new kinds keeps old snapshots loadable (the
// hashes they embed are unchanged); renumbering, renaming, or loading a
// snapshot from a *newer* grammar is rejected with ErrSnapshotSchema
// instead of importing entries whose keys silently mean something else.
const snapMagic = "mcuisnp3"

// Entry flag bits. An exported entry always carries at least one aspect.
const (
	snapHasCost  = 1 << 0 // cost field present and valid
	snapHasLegal = 1 << 1 // legality verdict known
	snapLegal    = 1 << 2 // the verdict (meaningful only with snapHasLegal)
	snapHasMoves = 1 << 3 // move set present

	snapFlagsMask = snapHasCost | snapHasLegal | snapLegal | snapHasMoves
)

// Move-set encoding limits. A move set beyond them is not exported; it is
// recomputed on first visit.
const (
	snapMaxMoves   = math.MaxUint16
	snapMaxPathLen = math.MaxUint8
	snapMaxStep    = math.MaxUint16
)

// Sanity bounds on header counts: far above anything a real snapshot
// carries, low enough that corrupt headers fail fast instead of looping.
const (
	snapMaxKinds  = 1 << 8
	snapMaxRules  = 1 << 8
	snapMaxBlocks = 1 << 16
)

var (
	// ErrSnapshotFormat reports bytes that are not a well-formed snapshot:
	// wrong magic, truncation, checksum mismatch, or corrupt structure.
	ErrSnapshotFormat = errors.New("malformed cache snapshot")
	// ErrSnapshotSchema reports a well-formed snapshot this build cannot
	// honor: its ast.Kind numbering (or grammar generation) differs, so its
	// keys would not mean what they meant when it was written.
	ErrSnapshotSchema = errors.New("incompatible cache snapshot")
)

// snapEntry is one parsed entry, the scratch row of the verify-before-insert
// import path.
type snapEntry struct {
	key   uint64
	cost  float64
	flags uint8
	moves []rules.Move
}

// Snapshot writes the cache's persistable aspects (cost, legality, move
// set) to w and returns the number of entries exported. Safe to call
// concurrently with searches: shards are copied out one at a time under
// their own locks, so the snapshot is a consistent-per-entry view of a
// moving cache — which is all determinism requires, since every entry is
// independently correct.
func (c *Cache) Snapshot(w io.Writer) (entries int64, err error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	mw := io.MultiWriter(bw, h)
	var scratch [8]byte
	writeU := func(v uint64, n int) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := mw.Write(scratch[:n])
		return err
	}

	names := ast.KindNames()
	if err := writeU(uint64(len(names)), 2); err != nil {
		return 0, err
	}
	for _, name := range names {
		if err := writeU(uint64(len(name)), 1); err != nil {
			return 0, err
		}
		if _, err := io.WriteString(mw, name); err != nil {
			return 0, err
		}
	}

	all := rules.All()
	ruleIndex := make(map[string]int, len(all))
	if err := writeU(uint64(len(all)), 2); err != nil {
		return 0, err
	}
	for i, r := range all {
		name := r.Name()
		ruleIndex[name] = i
		if err := writeU(uint64(len(name)), 1); err != nil {
			return 0, err
		}
		if _, err := io.WriteString(mw, name); err != nil {
			return 0, err
		}
	}

	if err := writeU(shardCount, 4); err != nil {
		return 0, err
	}
	// A row holds the entry's move codes, shared with the cache.
	type row struct {
		key   uint64
		cost  float64
		flags uint8
		moves []uint32
	}
	var rows []row
	for i := range c.shards {
		s := &c.shards[i]
		rows = rows[:0]
		s.mu.Lock()
		paths := c.paths.Load() // the table this shard's lists decode against
		for j := range s.ring {
			sl := &s.ring[j]
			var flags uint8
			if sl.e.hasCost {
				flags |= snapHasCost
			}
			if sl.e.legal != 0 {
				flags |= snapHasLegal
				if sl.e.legal == 1 {
					flags |= snapLegal
				}
			}
			var moves []uint32
			if sl.e.hasMoves && encodableMoves(paths, sl.e.moves, ruleIndex) {
				flags |= snapHasMoves
				moves = sl.e.moves
			}
			if flags == 0 {
				continue // moves-only entry whose move set does not encode
			}
			rows = append(rows, row{key: sl.key, cost: sl.e.cost, flags: flags, moves: moves})
		}
		s.mu.Unlock()
		// Written after the shard unlocks: a stalled writer (slow disk, slow
		// HTTP client) must not hold up searches using this shard.
		if err := writeU(uint64(len(rows)), 4); err != nil {
			return 0, err
		}
		for _, r := range rows {
			if err := writeU(r.key, 8); err != nil {
				return 0, err
			}
			if err := writeU(uint64(r.flags), 1); err != nil {
				return 0, err
			}
			if r.flags&snapHasCost != 0 {
				if err := writeU(math.Float64bits(r.cost), 8); err != nil {
					return 0, err
				}
			}
			if r.flags&snapHasMoves != 0 {
				if err := writeMoves(writeU, paths, r.moves, ruleIndex); err != nil {
					return 0, err
				}
			}
		}
		entries += int64(len(rows))
	}

	binary.LittleEndian.PutUint64(scratch[:], h.Sum64())
	if _, err := bw.Write(scratch[:]); err != nil { // trailer, not hashed
		return 0, err
	}
	return entries, bw.Flush()
}

// encodableMoves reports whether the move list with codes ms against paths
// fits the snapshot's move encoding.
func encodableMoves(paths *pathTable, ms []uint32, ruleIndex map[string]int) bool {
	if len(ms) > snapMaxMoves {
		return false
	}
	for _, code := range ms {
		m := paths.move(code)
		if _, ok := ruleIndex[m.Rule]; !ok || len(m.Path) > snapMaxPathLen {
			return false
		}
		for _, step := range m.Path {
			if step < 0 || step > snapMaxStep {
				return false
			}
		}
	}
	return true
}

// writeMoves writes the move list with codes ms against paths.
func writeMoves(writeU func(v uint64, n int) error, paths *pathTable, ms []uint32, ruleIndex map[string]int) error {
	if err := writeU(uint64(len(ms)), 2); err != nil {
		return err
	}
	for _, code := range ms {
		m := paths.move(code)
		if err := writeU(uint64(ruleIndex[m.Rule]), 1); err != nil {
			return err
		}
		if err := writeU(uint64(len(m.Path)), 1); err != nil {
			return err
		}
		for _, step := range m.Path {
			if err := writeU(uint64(step), 2); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadSnapshot reads a snapshot from r and merges its entries into the
// cache, returning the number of entries imported. The whole stream is
// parsed and checksum-verified *before* the first insert, so a truncated or
// corrupt snapshot can never plant garbage in a live cache — it returns
// ErrSnapshotFormat (or ErrSnapshotSchema for a kind-numbering mismatch)
// and leaves the cache untouched. Importing merges first-write-wins per
// aspect: importing twice is a no-op, and entries a live search has already
// populated are never clobbered. Importing into a cache smaller than the
// snapshot admits entries through the normal CLOCK eviction path, so
// occupancy never exceeds capacity. Move sets are encoded against the
// cache's path table until it is full (see NewCache); the rest are not
// imported, and are recomputed on first visit, so an import holds at most
// the table's bound of paths, in memory linear in them.
func (c *Cache) LoadSnapshot(r io.Reader) (int64, error) {
	rows, err := parseSnapshot(r)
	if err != nil {
		return 0, err
	}
	for _, row := range rows {
		var legal uint8
		if row.flags&snapHasLegal != 0 {
			legal = 2
			if row.flags&snapLegal != 0 {
				legal = 1
			}
		}
		hasCost := row.flags&snapHasCost != 0
		var moves []uint32
		var paths *pathTable
		if row.flags&snapHasMoves != 0 {
			p := c.paths.Load()
			if codes, ok := p.encodeMoves(row.moves); ok {
				moves, paths = codes, p
			}
		}
		if !hasCost && legal == 0 && paths == nil {
			continue
		}
		c.importEntry(row.key, row.cost, hasCost, legal, moves, paths)
	}
	return int64(len(rows)), nil
}

// parseSnapshot decodes and fully validates a snapshot stream without
// touching any cache state.
func parseSnapshot(r io.Reader) ([]snapEntry, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrSnapshotFormat, err)
	}
	if string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrSnapshotFormat, magic[:], snapMagic)
	}

	h := fnv.New64a()
	hr := io.TeeReader(br, h)
	var scratch [8]byte
	readU := func(n int) (uint64, error) {
		scratch = [8]byte{}
		if _, err := io.ReadFull(hr, scratch[:n]); err != nil {
			return 0, fmt.Errorf("%w: truncated: %w", ErrSnapshotFormat, err)
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}

	kindCount, err := readU(2)
	if err != nil {
		return nil, err
	}
	if kindCount == 0 || kindCount > snapMaxKinds {
		return nil, fmt.Errorf("%w: implausible kind count %d", ErrSnapshotFormat, kindCount)
	}
	names := ast.KindNames()
	if int(kindCount) > len(names) {
		return nil, fmt.Errorf("%w: snapshot knows %d grammar kinds, this build %d — written by a newer grammar",
			ErrSnapshotSchema, kindCount, len(names))
	}
	for i := 0; i < int(kindCount); i++ {
		nameLen, err := readU(1)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, nameLen)
		if _, err := io.ReadFull(hr, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated kind table: %w", ErrSnapshotFormat, err)
		}
		if string(buf) != names[i] {
			return nil, fmt.Errorf("%w: grammar kind %d is %q in the snapshot but %q in this build — kind numbering changed",
				ErrSnapshotSchema, i, buf, names[i])
		}
	}

	ruleCount, err := readU(2)
	if err != nil {
		return nil, err
	}
	if ruleCount > snapMaxRules {
		return nil, fmt.Errorf("%w: implausible rule count %d", ErrSnapshotFormat, ruleCount)
	}
	var ruleNames []string
	for i := 0; i < int(ruleCount); i++ {
		nameLen, err := readU(1)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, nameLen)
		if _, err := io.ReadFull(hr, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated rule table: %w", ErrSnapshotFormat, err)
		}
		r, ok := rules.ByName(string(buf))
		if !ok {
			return nil, fmt.Errorf("%w: rule %q is unknown to this build", ErrSnapshotSchema, buf)
		}
		ruleNames = append(ruleNames, r.Name())
	}

	blockCount, err := readU(4)
	if err != nil {
		return nil, err
	}
	if blockCount > snapMaxBlocks {
		return nil, fmt.Errorf("%w: implausible block count %d", ErrSnapshotFormat, blockCount)
	}
	var rows []snapEntry
	for b := uint64(0); b < blockCount; b++ {
		n, err := readU(4)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			key, err := readU(8)
			if err != nil {
				return nil, err
			}
			fl, err := readU(1)
			if err != nil {
				return nil, err
			}
			flags := uint8(fl)
			if flags&^snapFlagsMask != 0 {
				return nil, fmt.Errorf("%w: unknown entry flags %#x", ErrSnapshotFormat, flags)
			}
			if flags&(snapHasCost|snapHasLegal|snapHasMoves) == 0 {
				return nil, fmt.Errorf("%w: entry carries no aspect", ErrSnapshotFormat)
			}
			if flags&snapLegal != 0 && flags&snapHasLegal == 0 {
				return nil, fmt.Errorf("%w: legal bit without a verdict", ErrSnapshotFormat)
			}
			var cost float64
			if flags&snapHasCost != 0 {
				bits, err := readU(8)
				if err != nil {
					return nil, err
				}
				cost = math.Float64frombits(bits)
			}
			var moves []rules.Move
			if flags&snapHasMoves != 0 {
				if moves, err = readMoves(readU, ruleNames); err != nil {
					return nil, err
				}
			}
			rows = append(rows, snapEntry{key: key, cost: cost, flags: flags, moves: moves})
		}
	}

	want := h.Sum64()
	if _, err := io.ReadFull(br, scratch[:8]); err != nil {
		return nil, fmt.Errorf("%w: truncated checksum: %w", ErrSnapshotFormat, err)
	}
	if got := binary.LittleEndian.Uint64(scratch[:8]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (%#x != %#x)", ErrSnapshotFormat, got, want)
	}
	return rows, nil
}

// readMoves decodes one entry's move set. All paths share one backing
// array, each capped at its own length.
func readMoves(readU func(n int) (uint64, error), ruleNames []string) ([]rules.Move, error) {
	count, err := readU(2)
	if err != nil {
		return nil, err
	}
	var ms []rules.Move
	var ends []int
	var flat []int
	for i := uint64(0); i < count; i++ {
		idx, err := readU(1)
		if err != nil {
			return nil, err
		}
		if idx >= uint64(len(ruleNames)) {
			return nil, fmt.Errorf("%w: move names rule %d of %d", ErrSnapshotFormat, idx, len(ruleNames))
		}
		pathLen, err := readU(1)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < pathLen; j++ {
			step, err := readU(2)
			if err != nil {
				return nil, err
			}
			flat = append(flat, int(step))
		}
		ms = append(ms, rules.Move{Rule: ruleNames[idx]})
		ends = append(ends, len(flat))
	}
	start := 0
	for i, end := range ends {
		ms[i].Path = difftree.Path(flat[start:end:end])
		start = end
	}
	return ms, nil
}

// SaveSnapshotFile writes the cache snapshot to path crash-safely: the
// bytes land in a temporary sibling file which is fsynced and then renamed
// over path, so a crash mid-write leaves the previous snapshot intact and a
// reader can never observe a half-written file.
func SaveSnapshotFile(c *Cache, path string) (entries int64, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	entries, err = c.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return entries, nil
}

// LoadSnapshotFile merges the snapshot at path into the cache; see
// Cache.LoadSnapshot for the validation and merge semantics.
func LoadSnapshotFile(c *Cache, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.LoadSnapshot(f)
}
