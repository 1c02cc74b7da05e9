// Command repobench is the repository benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the run's correctness verdict, operations
// attempted and failed, and its metrics. With -trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with -trace 1 they are the
// per-layer ones from a separate traced run. See README.md for the
// workloads, the metrics and the predictions they are meant to test.
//
//	repobench -workload sdss-cold -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	conns    int // client connection cap
	// Search budgets, fixed by the workloads; tests shrink them.
	searchIters, serveIters int
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "sdss-cold, sdss-warm or serve-sessions")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the program receives only inputs generated from it")
	flag.Float64Var(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	cfg.duration = time.Duration(seconds * float64(time.Second))
	cfg.traced = trace == 1
	cfg.conns = runtime.GOMAXPROCS(0)
	cfg.searchIters, cfg.serveIters = searchIterations, serveIterations
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "repobench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg *config) (*output, error) {
	switch cfg.workload {
	case "sdss-cold", "sdss-warm":
		warm := cfg.workload == "sdss-warm"
		if cfg.traced {
			return runSearchTraced(cfg, warm)
		}
		return runSearchWorkload(cfg, warm)
	case "serve-sessions":
		if cfg.traced {
			return runServeTraced(cfg)
		}
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want sdss-cold, sdss-warm or serve-sessions)", cfg.workload)
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutput(attempted, failed int) *output {
	return &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

// metric records one metric; a value that is not a finite number (an empty
// sample) makes the run incorrect rather than printing an invalid number.
func (o *output) metric(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		warnf("metric %s has no value", name)
		o.Correct = false
		v = 0
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// tailMetric records the p-th percentile of xs. When the sample is too
// small for it (fewer than tailSamples beyond it), the highest supported
// percentile is recorded instead and the substitution is noted on stderr.
func (o *output) tailMetric(name string, xs []float64, p float64, unit string) {
	v, got := tail(xs, p)
	if got != p {
		warnf("%s: %d samples support only p%g", name, len(xs), got)
	}
	o.metric(name, v, unit)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repobench: "+format+"\n", args...)
}

func notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
