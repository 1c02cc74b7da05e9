package eval

import (
	"bytes"
	"testing"

	"repro/internal/difftree"
	"repro/internal/rules"
)

// FuzzLoadSnapshot asserts the import-safety property end to end: no byte
// stream — valid, truncated, bit-flipped, or adversarial — may panic the
// decoder, and any stream that fails validation must leave the cache
// completely untouched (verify-before-insert).
func FuzzLoadSnapshot(f *testing.F) {
	// Seed corpus: a real snapshot, its prefix, and structured near-misses.
	c := NewCache(0)
	c.SetCost(0x1234, 1.25)
	c.SetLegal(0x1234, true)
	c.SetLegal(0x9999, false)
	setMoveList(f, c, 0x9999, []rules.Move{{Rule: "Wrap", Path: difftree.Path{0, 3}}})
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapMagic))
	f.Add([]byte("mcuisnp0"))
	f.Add([]byte{})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0xff // checksum corruption
	f.Add(flipped)
	f.Add(retiredSnapshot(1, map[uint64]float64{5: 2.5})) // retired formats: rejected
	f.Add(retiredSnapshot(2, map[uint64]float64{5: 2.5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := NewCache(0)
		n, err := dst.LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if n != 0 {
				t.Fatalf("failed import reported %d entries", n)
			}
			if got := dst.Stats().Entries; got != 0 {
				t.Fatalf("failed import planted %d entries", got)
			}
			return
		}
		// Only a checksum-valid stream may import; re-importing it must be
		// accepted and idempotent.
		if _, err := dst.LoadSnapshot(bytes.NewReader(data)); err != nil {
			t.Fatalf("valid snapshot failed on re-import: %v", err)
		}
	})
}
