package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// workload is one benchmark scenario over a running deployment.
type workload interface {
	// workers is the number of closed-loop callers.
	workers() int
	// op runs operation i of worker w's own sequence.
	op(w int, i uint64) error
	// counters adds the client side's cumulative counters to c.
	counters(c *counters)
	// server is the deployment's SL-Remote.
	server() *server
	// finish stops the clients and the server and runs every correctness
	// check of the run.
	finish() error
	// close tears everything down without checking.
	close()
}

// phase is one measurement window's tally. During a run each caller keeps
// its own, so the timed op touches no state shared with other callers;
// drive merges them afterwards.
type phase struct {
	lat     hist
	fails   [len(failClasses)]int64
	stalled int64 // successful ops slower than wire.DefaultTimeout
	start   time.Time
	elapsed time.Duration
}

func (p *phase) attempted() int64 {
	n := p.lat.ok()
	for _, f := range p.fails {
		n += f
	}
	return n
}

func (p *phase) record(d time.Duration, err error) {
	if err == nil {
		p.lat.observe(d)
		if d > wire.DefaultTimeout {
			p.stalled++
		}
		return
	}
	p.lat.fail()
	p.fails[classIndex(classify(err))]++
}

func (p *phase) merge(o *phase) {
	p.lat.add(&o.lat)
	p.stalled += o.stalled
	for i, f := range o.fails {
		p.fails[i] += f
	}
}

// drive runs the workload's closed-loop callers through consecutive
// windows of the given lengths without pausing between them. An op counts
// in the window it started in; after the last window the callers finish
// their in-flight op and stop. boundary, if set, runs at the start of each
// window and once after the last (with i == len(windows)), while the
// callers keep going.
func drive(w workload, windows []time.Duration, boundary func(i int)) []*phase {
	phases := make([]*phase, len(windows))
	lanes := make([][]phase, w.workers())
	for i := range phases {
		phases[i] = &phase{}
	}
	var cur atomic.Int32
	var wg sync.WaitGroup
	phases[0].start = time.Now()
	if boundary != nil {
		boundary(0)
	}
	for id := range lanes {
		lanes[id] = make([]phase, len(windows))
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lane := lanes[id]
			for i := uint64(0); ; i++ {
				p := int(cur.Load())
				if p >= len(lane) {
					return
				}
				start := time.Now()
				err := w.op(id, i)
				lane[p].record(time.Since(start), err)
			}
		}(id)
	}
	for i, d := range windows {
		time.Sleep(d - time.Since(phases[i].start))
		now := time.Now()
		phases[i].elapsed = now.Sub(phases[i].start)
		if i+1 < len(phases) {
			phases[i+1].start = now
			cur.Store(int32(i + 1))
			if boundary != nil {
				boundary(i + 1)
			}
		}
	}
	cur.Store(int32(len(phases)))
	if boundary != nil {
		boundary(len(phases))
	}
	wg.Wait()
	for _, lane := range lanes {
		for i := range lane {
			phases[i].merge(&lane[i])
		}
	}
	return phases
}

// result is one run's output.
type result struct {
	opts      options
	setupS    float64
	procs     int
	fsType    string
	attempted int64
	failed    int64
	stalled   int64
	classes   map[string]int64
	metrics   []metric
	notes     []string // extra lines for the human-readable table
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) tally(ps []*phase) {
	for _, p := range ps {
		r.attempted += p.attempted()
		r.stalled += p.stalled
		for i, c := range failClasses {
			r.failed += p.fails[i]
			r.classes[c] += p.fails[i]
		}
	}
}

// measurePlain is the untraced run: --seconds of load, measured from the
// outside of the process only. Every figure is the whole run's, so a stall
// that hits part of the run — a snapshot, a GC burst, a starved renewal —
// counts in it.
func measurePlain(w workload, o options, r *result) {
	var before, after procSample
	virt0 := virtualNS(w)
	ps := drive(w, []time.Duration{seconds(o.seconds)}, func(i int) {
		if i == 0 {
			before = sampleProc()
		}
	})
	// The ops in flight at the end finish after the window closes; count
	// their cost too.
	after = sampleProc()
	r.tally(ps)
	p := ps[0]
	n := float64(p.attempted())
	r.add("ops_per_s", float64(p.lat.ok())/p.elapsed.Seconds(), "1/s")
	r.add("op_p50_us", p.lat.quantileUS(0.50), "us")
	r.add("cpu_us_per_op", ratio(float64((after.cpu-before.cpu).Microseconds()), n), "us")
	r.add("alloc_bytes_per_op", ratio(float64(after.alloc-before.alloc), n), "B")
	r.add("allocs_per_op", ratio(float64(after.mallocs-before.mallocs), n), "count")
	r.add("rss_peak_mb", float64(after.maxRSSKB)/1024, "MB")
	r.add("setup_s", r.setupS, "s")
	r.notes = append(r.notes,
		fmt.Sprintf("op_p95_us           %.4f us (%d ops beyond it; not gated)", p.lat.quantileUS(0.95), int64(n)/20),
		fmt.Sprintf("op_p99_us           %.4f us (%d ops beyond it; not gated)", p.lat.quantileUS(0.99), int64(n)/100),
		fmt.Sprintf("fail_frac           %.6f (of %d ops)", ratio(float64(r.failed), n), r.attempted),
		fmt.Sprintf("virt_us_per_op      %.3f us (simulated SGX time on client machines)", ratio((virtualNS(w)-virt0)/1e3, n)))
}

func virtualNS(w workload) float64 {
	var c counters
	w.counters(&c)
	return c.get("sgx.virt_ns")
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// line is the JSON object the last line of standard output carries.
func (r *result) line() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   true,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

func (r *result) printTable(out io.Writer) {
	mode := "end-to-end"
	if r.opts.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g: %s metrics\n", r.opts.workload, r.opts.seed, r.opts.seconds, mode)
	fmt.Fprintf(out, "  box: nproc=%d GOMAXPROCS=%d state-dir fs=%s fsync=batched\n", r.procs, r.procs, r.fsType)
	fmt.Fprintf(out, "  ops attempted=%d failed=%d", r.attempted, r.failed)
	for _, c := range failClasses {
		fmt.Fprintf(out, " %s=%d", c, r.classes[c])
	}
	fmt.Fprintf(out, "; stalled past wire.DefaultTimeout but completed=%d\n", r.stalled)
	ms := append([]metric(nil), r.metrics...)
	if r.opts.trace {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	}
	for _, m := range ms {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
}
