package eval

import (
	"sync"
	"testing"
)

// TestEvictOccupancyNeverExceedsCapacity streams far more distinct states
// than the cache holds and checks, at every step, that no shard ring ever
// grows past its per-shard bound and that the global entry count never
// exceeds Capacity.
func TestEvictOccupancyNeverExceedsCapacity(t *testing.T) {
	const maxEntries = 256
	c := NewCache(maxEntries)
	capTotal := c.Stats().Capacity
	if capTotal < maxEntries {
		t.Fatalf("capacity %d below requested %d", capTotal, maxEntries)
	}
	for i := 0; i < 50*maxEntries; i++ {
		c.SetCost(uint64(i)*0x9e3779b97f4a7c15, float64(i))
		if i%97 != 0 {
			continue
		}
		for s := range c.shards {
			if n := len(c.shards[s].ring); n > c.maxPerShard {
				t.Fatalf("shard %d occupancy %d exceeds per-shard cap %d", s, n, c.maxPerShard)
			}
		}
		if st := c.Stats(); st.Entries > st.Capacity {
			t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
		}
	}
	st := c.Stats()
	if st.Entries != st.Capacity {
		t.Errorf("steady-state occupancy %d, want capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Error("a 50x-capacity stream recorded no evictions")
	}
}

// TestEvictHotEntriesSurviveScan interleaves a one-shot cold stream with
// periodic touches of a small hot set: second-chance must keep every hot
// entry resident while the scan churns through the rest of the ring.
func TestEvictHotEntriesSurviveScan(t *testing.T) {
	const maxEntries = 1024
	c := NewCache(maxEntries)

	hot := make([]uint64, 32)
	for i := range hot {
		hot[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		c.SetCost(hot[i], float64(i))
	}
	touch := func() {
		for i, k := range hot {
			v, ok := cachedCost(c, k)
			if !ok {
				t.Fatalf("hot entry %d evicted by scan traffic", i)
			}
			if v != float64(i) {
				t.Fatalf("hot entry %d corrupted: %v", i, v)
			}
		}
	}
	// The scan inserts ~half a shard ring between hot touches, so the clock
	// hand passes every slot many times over while each hot entry's
	// reference bit is refreshed well within one revolution.
	const scanLen = 20 * maxEntries
	cold := uint64(1 << 32)
	for i := 0; i < scanLen; i++ {
		cold += 0x9e3779b97f4a7c15
		c.SetCost(cold, 1)
		if i%(maxEntries/128) == 0 {
			touch()
		}
	}
	touch()
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("scan recorded no evictions")
	}
}

// TestEvictRace hammers a deliberately tiny cache (heavy eviction on every
// path) from 8 workers; under `go test -race` this is the concurrency
// exercise for the CLOCK ring bookkeeping. Values read back must always be
// the value written for that key — eviction may drop entries, never corrupt
// them.
func TestEvictRace(t *testing.T) {
	c := NewCache(shardCount * 2) // two slots per shard
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				key := uint64((i + w*17) % 509)
				switch i % 3 {
				case 0:
					c.SetCost(key, float64(key))
				case 1:
					if v, ok := cachedCost(c, key); ok && v != float64(key) {
						t.Errorf("worker %d: cost %v for key %d", w, v, key)
					}
				case 2:
					c.SetLegal(key, key%2 == 0)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Error("tiny cache under 8 workers recorded no evictions")
	}
}
