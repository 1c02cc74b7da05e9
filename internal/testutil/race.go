//go:build race

package testutil

// Race reports whether the binary was built with the race detector. Under
// it, sync.Pool drops items at random, so allocation counts of code that
// draws from a pool vary from run to run: tests skip their
// testing.AllocsPerRun assertions when it is set.
const Race = true
