// Package benchutil holds the report plumbing shared by the benchmark
// commands (cmd/searchbench, cmd/mctsload): writing the machine-readable
// BENCH_*.json files and printing old-vs-new per-metric deltas for the CI
// compare step. Both commands follow the same conventions — a JSON report
// artifact, a readable diff against the previous run printed *before* any
// gate fires, and gates that are recorded but only enforced on machines
// that can express them. Go benchmarks report process CPU time per op
// through it too (ReportCPU).
package benchutil

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// WriteJSON marshals v indented with a trailing newline to path, or to
// stdout when path is "-".
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// DeltaPrinter returns a printer for one old -> new metric line with the
// percent change, the shared format of every -compare diff:
//
//	warm iters/sec            1234.00 ->    2345.00  (+90.0%)
func DeltaPrinter(w io.Writer) func(label string, old, new float64, unit string) {
	return func(label string, old, new float64, unit string) {
		pct := ""
		if old != 0 {
			pct = fmt.Sprintf(" (%+.1f%%)", (new-old)/old*100)
		}
		fmt.Fprintf(w, "    %-22s %10.2f -> %10.2f %s%s\n", label, old, new, unit, pct)
	}
}

// GateEnforced implements the shared gate convention: gates are always
// *recorded* in the report, but only *enforced* when the machine qualifies
// (NumCPU >= minCPUs) — an under-provisioned CI runner or a 1-CPU container
// records its numbers without failing the build. A minCPUs of 0 or less
// always qualifies.
func GateEnforced(minCPUs int) (cpus int, enforced bool) {
	cpus = runtime.NumCPU()
	return cpus, minCPUs <= 0 || cpus >= minCPUs
}

// ReportCPU reports on b (a *testing.B) the process CPU time used since
// start, a ProcessCPU reading, per op as the cpu-ms/op metric. On a shared
// host wall time per op swings with the neighbours' load; CPU time swings
// much less, so an A/B comparison can tell a change from the host. It
// reports nothing where ProcessCPU cannot read the time.
func ReportCPU(b interface{ ReportMetric(float64, string) }, ops int, start time.Duration) {
	now, ok := ProcessCPU()
	if !ok || ops <= 0 {
		return
	}
	b.ReportMetric(float64(now-start)/float64(time.Millisecond)/float64(ops), "cpu-ms/op")
}
