//go:build !unix

package benchutil

import "time"

// ProcessCPU reports no CPU time on this platform.
func ProcessCPU() (cpu time.Duration, ok bool) { return 0, false }
