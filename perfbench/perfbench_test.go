package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/leasetree"
	"repro/internal/sllocal"
	"repro/internal/slmanager"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(r *result) []string {
	var out []string
	for _, m := range r.metrics {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

// TestSameSeedSameOps: one seed generates an identical op sequence twice,
// and another seed a different one, for every workload.
func TestSameSeedSameOps(t *testing.T) {
	const n = 5000
	fleetOps := func(seed uint64) (ops [][2]int, warm [][2]int) {
		g := fleetGen{seed: seed, slids: 2048, licenses: len(catalog())}
		for w := 0; w < 4; w++ {
			for i := uint64(0); i < n; i++ {
				s, l := g.op(w, i)
				ops = append(ops, [2]int{s, l})
			}
		}
		return ops, g.warmup()
	}
	appOps := func(seed int64) []uint16 {
		var out []uint16
		for w := 0; w < 4; w++ {
			out = append(out, callStream(seed, w, catalog())...)
		}
		return out
	}
	churnOps := func(seed int64) []session {
		var out []session
		for w := 0; w < churnSessions; w++ {
			g := newChurnGen(seed, w, churnSessions, 32, len(catalog()))
			for i := 0; i < n; i++ {
				out = append(out, g.next())
			}
		}
		return out
	}
	a1, w1 := fleetOps(7)
	a2, w2 := fleetOps(7)
	b1, _ := fleetOps(8)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(w1, w2) {
		t.Error("renew_fleet: seed 7 generated two different sequences")
	}
	if reflect.DeepEqual(a1, b1) {
		t.Error("renew_fleet: seeds 7 and 8 generated the same sequence")
	}
	if !reflect.DeepEqual(appOps(7), appOps(7)) {
		t.Error("app_exec: seed 7 generated two different sequences")
	}
	if reflect.DeepEqual(appOps(7), appOps(8)) {
		t.Error("app_exec: seeds 7 and 8 generated the same sequence")
	}
	if !reflect.DeepEqual(churnOps(7), churnOps(7)) {
		t.Error("session_churn: seed 7 generated two different sequences")
	}
	if reflect.DeepEqual(churnOps(7), churnOps(8)) {
		t.Error("session_churn: seeds 7 and 8 generated the same sequence")
	}
}

// TestFleetSizing: every count license has hundreds of holders, as evenly
// spread as the catalog allows, and the timed renewals only name licenses
// their SLID holds.
func TestFleetSizing(t *testing.T) {
	g := fleetGen{seed: 1, slids: 2048, licenses: len(catalog())}
	holders := make(map[int]int)
	held := make(map[[2]int]bool)
	for i := 0; i < g.slids; i++ {
		for _, l := range g.holds(i) {
			holders[l]++
			held[[2]int{i, l}] = true
		}
	}
	if holders[g.licenses] != g.slids {
		t.Errorf("perpetual license has %d holders, want every SLID", holders[g.licenses])
	}
	for l := 0; l < g.licenses; l++ {
		if c, even := holders[l], g.slids*appsPerMachine/g.licenses; c < even || c > even+appsPerMachine {
			t.Errorf("license %d has %d holders, want %d to %d", l, c, even, even+appsPerMachine)
		}
	}
	for i := uint64(0); i < 10000; i++ {
		s, l := g.op(int(i%3), i)
		if !held[[2]int{s, l}] {
			t.Fatalf("op %d renews license %d that SLID %d does not hold", i, l, s)
		}
	}
}

// TestAppCatalog: app_exec's callers reach every key function of the
// catalog, and the tree budget keeps about half the machine's leases
// resident.
func TestAppCatalog(t *testing.T) {
	apps := catalog()
	funcs := 0
	for _, a := range apps {
		funcs += len(a.funcs)
	}
	seen := make(map[uint16]bool)
	for _, f := range callStream(1, 0, apps) {
		seen[f] = true
	}
	if len(seen) != funcs {
		t.Errorf("call stream reaches %d of %d key functions", len(seen), funcs)
	}
	budget, err := treeBudget(len(apps))
	if err != nil {
		t.Fatal(err)
	}
	tree := leasetree.NewTree()
	tree.SetBudget(budget)
	blk := leasetree.NewIDAllocator().NextBlock()
	for range apps {
		id, _ := blk.Next()
		if err := tree.Put(lease.Record{ID: id, GCL: lease.GCL{Kind: lease.CountBased}}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tree.ResidentRecords(), len(apps)/2; got < want-1 || got > want+1 {
		t.Errorf("the budget keeps %d of %d leases resident, want about half", got, len(apps))
	}
}

// TestClassify: only a refusal counts as a denial; every other error the
// server reports is a server failure.
func TestClassify(t *testing.T) {
	remote := func(msg string) error { return fmt.Errorf("%w: %s", wire.ErrRemote, msg) }
	cases := []struct {
		err  error
		want string
	}{
		{remote(slremote.ErrLicenseExhausted.Error()), failDenied},
		{remote(slremote.ErrLicenseRevoked.Error() + ": lic-x"), failDenied},
		{fmt.Errorf("%w: %q", sllocal.ErrLeaseDenied, "lic-x"), failDenied},
		{fmt.Errorf("%w: %v", slmanager.ErrNoLease, fmt.Errorf("%w: %q", sllocal.ErrLeaseDenied, "lic-x")), failDenied},
		{fmt.Errorf("%w: %v", sllocal.ErrLeaseDenied, remote(slremote.ErrLicenseExhausted.Error())), failDenied},
		{remote("store: fsync: input/output error"), failServer},
		{remote(slremote.ErrUnknownClient.Error()), failServer},
		{fmt.Errorf("%w: %v", sllocal.ErrLeaseDenied, remote("server draining")), failServer},
		{fmt.Errorf("wire: read: %w", os.ErrDeadlineExceeded), failTimeout},
		{fmt.Errorf("%w: %v", sllocal.ErrLeaseDenied, fmt.Errorf("read: %w", os.ErrDeadlineExceeded)), failTimeout},
		{io.ErrUnexpectedEOF, failTransport},
		{fmt.Errorf("%w: ran twice", errWrong), failWrong},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestStalledOp: an op that completes after more than wire.DefaultTimeout
// succeeds, keeps its latency, and is counted as stalled.
func TestStalledOp(t *testing.T) {
	var p phase
	p.record(time.Millisecond, nil)
	p.record(wire.DefaultTimeout+time.Second, nil)
	if p.stalled != 1 || p.lat.ok() != 2 || p.attempted() != 2 {
		t.Errorf("stalled=%d ok=%d attempted=%d, want 1, 2, 2", p.stalled, p.lat.ok(), p.attempted())
	}
	if got := p.lat.quantileUS(1); got < float64((wire.DefaultTimeout+time.Second).Microseconds())*0.99 {
		t.Errorf("max latency %.0f us, want the stalled op's", got)
	}
}

// TestSmoke runs every workload at tiny size for about a second, plain and
// traced: the correctness checks must pass, no op may fail, and exactly
// the metrics BENCHMARK.json declares must be printed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range []string{"renew_fleet", "app_exec", "session_churn"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 1, seconds: 1, trace: trace, small: true, stateDir: t.TempDir()}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed (%v)", w, trace, r.failed, r.attempted, r.classes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v printed metrics\n%v\nwant\n%v", w, trace, got, want)
			}
		}
	}
}

// TestTapMatchesProgramCounters: on a plaintext channel the socket bytes
// the listener wrapper counts equal the wire server's frame-byte counters,
// and the Logger wrapper's appends equal store_wal_appends_total. finish
// runs the comparison (crossCheck) and fails the run on a mismatch.
func TestTapMatchesProgramCounters(t *testing.T) {
	for _, w := range []string{"renew_fleet", "session_churn"} {
		o := options{workload: w, seed: 3, seconds: 1, trace: true, small: true, insecure: true, stateDir: t.TempDir()}
		if _, err := run(o); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
}
