// Command perfbench is the repository's end-to-end benchmark. It stands up
// the deployment the daemons ship — SL-Remote with a durable state
// directory (batched fsync, sealed audit log, periodic snapshots) serving
// RA-TLS on loopback TCP, and SL-Local/SL-Manager clients on simulated SGX
// machines — in one process, drives one seeded workload against it
// through the public APIs, checks the outcome, and prints the metrics:
//
//	perfbench --workload renew_fleet --seed 1 --seconds 30 --trace 0
//
// Workloads: renew_fleet (wire renewals from a large fleet), app_exec
// (guarded executions on client machines) and session_churn (whole
// SL-Local lifecycles). --trace 0 prints the end-to-end metrics; --trace 1
// runs the traced variant and prints the per-layer split instead. The last
// line of standard output is one JSON object; a human-readable table goes
// to standard error. A run whose correctness checks fail prints no
// numbers and exits non-zero. See README.md for the rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string
	small    bool // tiny fleet and pools: the smoke test's size, set by tests only
	insecure bool // plaintext channel: only the wrapper cross-check uses it
}

// Each run builds its deployment at least setupMinReps times, and more
// while the builds so far took under setupMinSeconds, up to setupMaxReps;
// setup_s is the median and the last build is the one measured. A quick
// set-up is thus timed often enough that its median is steady.
const (
	setupMinReps    = 3
	setupMaxReps    = 25
	setupMinSeconds = 2.0
)

// minSamples keeps at least ten samples beyond the p99 the table reports.
const minSamples = 1000

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "renew_fleet, app_exec or session_churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.stateDir, "state-dir", ".bench_build/state", "parent of the server's state directory")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	res.printTable(os.Stderr)
	out, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload end to end: set-up (repeated), measurement,
// and the correctness checks. The state directory is removed afterwards.
func run(o options) (*result, error) {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	dir := filepath.Join(o.stateDir, o.workload+"-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)

	var setups []float64
	var w workload
	var total float64
	for rep := 0; ; rep++ {
		repDir := filepath.Join(dir, strconv.Itoa(rep))
		start := time.Now()
		var err error
		w, err = newWorkload(o, repDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[rep]
		if rep+1 >= setupMaxReps || (rep+1 >= setupMinReps && total >= setupMinSeconds) {
			break
		}
		w.close()
		os.RemoveAll(repDir)
		runtime.GC()
	}
	// Start the timed run from a collected heap, so the garbage the
	// set-ups left does not set the first GC cycles' pace.
	runtime.GC()
	res := &result{
		opts:    o,
		setupS:  median(setups),
		procs:   procs,
		fsType:  fsType(dir),
		classes: map[string]int64{},
	}
	if o.trace {
		measureTraced(w, o, res)
	} else {
		measurePlain(w, o, res)
	}
	if err := w.finish(); err != nil {
		return nil, fmt.Errorf("correctness check failed: %w", err)
	}
	if res.attempted < minSamples {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d ops in %g s leave fewer than ten samples beyond p99\n", res.attempted, o.seconds)
	}
	return res, nil
}
