package mctsui

import (
	"io"

	"repro/internal/eval"
)

// Snapshot portability. Because state evaluation is a pure function of
// (configuration, state) — the determinism contract every search strategy
// is built on — a warm cache is not process-local state: its cost,
// legality and move-set entries are identical to what any other process
// running the same build would compute. WriteTo/ReadFrom make that portability
// concrete: export a daemon's cache before a restart or ship it to a fresh
// replica, and the importer answers from the first request at warm speed
// without the snapshot ever being able to change a result.
//
// What travels: state costs, legality verdicts and legal move sets, keyed
// by the mixed configuration-fingerprint key: every aspect the cache
// holds. What doesn't: the per-node hash and kind-count memos, rebuilt on
// first visit. A snapshot depends only on the entries, not on how many
// configurations have used the cache. Snapshots in a retired format
// (version 1, before move sets travelled, and version 2, which also listed
// the fingerprint of every configuration that had used the cache) are
// rejected with ErrSnapshotFormat; the daemon starts cold and its next
// persist rewrites them in the current format.
//
// The format is versioned and self-checking: a checksum trailer plus an
// embedded grammar-numbering table mean a truncated, corrupt, or
// stale-schema snapshot is rejected with a clean error before a single
// entry is imported — never silently, never partially.

// Sentinel error classes returned by ReadFrom; test with errors.Is.
var (
	// ErrSnapshotFormat reports bytes that are not a well-formed snapshot:
	// wrong magic, truncation, checksum mismatch, or corrupt structure.
	ErrSnapshotFormat = eval.ErrSnapshotFormat
	// ErrSnapshotSchema reports a well-formed snapshot this build cannot
	// honor because its grammar numbering differs (written by a newer or
	// incompatible build), so its keys would not mean what they meant when
	// it was written.
	ErrSnapshotSchema = eval.ErrSnapshotSchema
)

// WriteTo exports the cache's portable entries to w and returns the number
// of entries written. Safe to call concurrently with searches: the snapshot
// is a consistent-per-entry view of a moving cache, which is all
// determinism requires.
func (c *Cache) WriteTo(w io.Writer) (int64, error) { return c.c.Snapshot(w) }

// ReadFrom imports a snapshot from r, returning the number of entries
// merged. Import is idempotent and first-write-wins per entry aspect: it
// never clobbers entries a live search has already computed, and importing
// the same snapshot twice is a no-op. A snapshot larger than the cache's
// capacity imports through the normal eviction path. Malformed or
// incompatible input is fully rejected — the stream is parsed and
// checksum-verified before anything is inserted — with an error matching
// ErrSnapshotFormat or ErrSnapshotSchema.
func (c *Cache) ReadFrom(r io.Reader) (int64, error) { return c.c.LoadSnapshot(r) }

// SaveSnapshot writes the cache snapshot to path crash-safely: bytes land
// in a temporary sibling file, fsynced, then renamed over path — a crash
// mid-write leaves the previous snapshot intact.
func (c *Cache) SaveSnapshot(path string) (int64, error) {
	return eval.SaveSnapshotFile(c.c, path)
}

// LoadSnapshot merges the snapshot file at path into the cache; see
// ReadFrom for the validation and merge semantics.
func (c *Cache) LoadSnapshot(path string) (int64, error) {
	return eval.LoadSnapshotFile(c.c, path)
}
