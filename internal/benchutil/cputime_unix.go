//go:build unix

package benchutil

import (
	"syscall"
	"time"
)

// ProcessCPU returns the CPU time, user plus system, the process has used
// so far; ok is false where it cannot be read.
func ProcessCPU() (cpu time.Duration, ok bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
