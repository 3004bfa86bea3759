package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// counters is a point-in-time reading of every counter the traced run
// uses: the program's own (Stats(), the obs registries, the ratls
// handshake counts), the tap's, and the Go runtime's. Gauges keep their
// latest value when readings are differenced; histograms are obs bucket
// counts.
type counters struct {
	v map[string]float64
	g map[string]float64
	h map[string]*buckets
}

type buckets struct {
	bounds []float64
	counts []int64
	sum    float64
	count  int64
}

func (c *counters) init() {
	if c.v == nil {
		c.v, c.g, c.h = map[string]float64{}, map[string]float64{}, map[string]*buckets{}
	}
}

func (c *counters) add(k string, x float64) { c.init(); c.v[k] += x }
func (c *counters) gauge(k string, x float64) {
	c.init()
	c.g[k] += x
}
func (c *counters) get(k string) float64 { return c.v[k] }

func (c *counters) addHist(k string, bounds []float64, counts []int64, sum float64, n int64) {
	c.init()
	b := c.h[k]
	if b == nil {
		b = &buckets{bounds: bounds, counts: make([]int64, len(counts))}
		c.h[k] = b
	}
	for i, x := range counts {
		b.counts[i] += x
	}
	b.sum += sum
	b.count += n
}

// addExport folds a registry into c under prefix, summing the children of
// each family.
func (c *counters) addExport(prefix string, fams []obs.ExportFamily) {
	for _, f := range fams {
		for _, ch := range f.Children {
			switch f.Kind {
			case "histogram":
				c.addHist(prefix+f.Name, f.Bounds, ch.Buckets, ch.Sum, ch.Count)
			case "gauge":
				c.gauge(prefix+f.Name, ch.Value)
			default:
				c.add(prefix+f.Name, ch.Value)
			}
		}
	}
}

// accumulate adds after−before into c; gauges take after's value.
func (c *counters) accumulate(before, after counters) {
	c.init()
	for k, x := range after.v {
		c.v[k] += x - before.v[k]
	}
	for k, x := range after.g {
		c.g[k] = x
	}
	for k, b := range after.h {
		counts := append([]int64(nil), b.counts...)
		sum, n := b.sum, b.count
		if p := before.h[k]; p != nil {
			for i := range counts {
				counts[i] -= p.counts[i]
			}
			sum -= p.sum
			n -= p.count
		}
		c.addHist(k, b.bounds, counts, sum, n)
	}
}

// quantile of histogram k in the given scale (1e6 for µs from seconds).
func (c *counters) quantile(k string, q, scale float64) float64 {
	b := c.h[k]
	if b == nil {
		return 0
	}
	return bucketQuantile(b.bounds, b.counts, q) * scale
}

func (c *counters) mean(k string, scale float64) float64 {
	b := c.h[k]
	if b == nil || b.count == 0 {
		return 0
	}
	return b.sum / float64(b.count) * scale
}

// collect reads every counter of the deployment.
func collect(w workload) counters {
	var c counters
	c.init()
	s := w.server()
	st := s.remote.Stats()
	c.add("slremote.renewals", float64(st.Renewals))
	c.add("slremote.denials", float64(st.RenewalsDenied))
	rs := s.rc.Stats()
	c.add("ratls.cold", float64(rs.ColdHandshakes))
	c.add("ratls.resumed", float64(rs.ResumedHandshakes))
	c.addExport("srv.", s.reg.Export())
	c.add("audit.records", float64(s.audit.Len()))
	c.add("audit.bytes", float64(s.auditBytes()))
	if t := s.tap; t != nil {
		c.add("tap.wal_appends", float64(t.walAppends.Load()))
		c.add("tap.wal_renew_appends", float64(t.walRenewAppends.Load()))
		c.add("tap.snapshots", float64(t.snapshots.Load()))
		c.gauge("tap.snapshot_bytes", float64(t.snapshotBytes.Load()))
		c.add("tap.fsyncs", float64(t.fsyncs.Load()))
		c.add("tap.sock_in", float64(t.sockIn.Load()))
		c.add("tap.sock_out", float64(t.sockOut.Load()))
		c.add("tap.sock_reads", float64(t.sockReads.Load()))
		c.add("tap.sock_writes", float64(t.sockWrites.Load()))
	}
	w.counters(&c)
	p := sampleProc()
	c.add("rt.gcs", float64(p.gcs))
	c.add("rt.gc_cpu", p.gcCPU)
	c.add("rt.cpu", p.totalCPU)
	return c
}

// measureTraced is the traced run: four windows of --seconds/4 in the
// order off, on, on, off. Timing wrappers record only in the "on"
// windows, which give the per-layer split; the throughput of the "off"
// windows against the "on" ones gives the tracing overhead. The ABBA
// order cancels a linear drift between the halves.
func measureTraced(w workload, o options, r *result) {
	t := w.server().tap
	on := []bool{false, true, true, false}
	windows := make([]time.Duration, len(on))
	for i := range windows {
		windows[i] = seconds(o.seconds / float64(len(on)))
	}
	snaps := make([]counters, len(on)+1)
	ps := drive(w, windows, func(i int) {
		snaps[i] = collect(w)
		t.on.Store(i < len(on) && on[i])
	})
	r.tally(ps)

	var d counters
	var traced, plain []*phase
	for i, p := range ps {
		if on[i] {
			d.accumulate(snaps[i], snaps[i+1])
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	var ops, failed float64
	for _, p := range traced {
		n := p.attempted()
		ops += float64(n)
		failed += float64(n - p.lat.ok())
	}
	per := func(k string) float64 { return ratio(d.get(k), ops) }
	perK := func(k string) float64 { return 1000 * per(k) }
	const us = 1e6

	r.add("wire.client_rtt_p50_us", t.rpcTime.quantileUS(0.50), "us")
	r.add("wire.client_rtt_p99_us", t.rpcTime.quantileUS(0.99), "us")
	r.add("wire.server_handle_p50_us", d.quantile("srv.wire_server_rpc_latency_seconds", 0.50, us), "us")
	r.add("wire.server_handle_p99_us", d.quantile("srv.wire_server_rpc_latency_seconds", 0.99, us), "us")
	rtt, handle := t.rpcTime.meanUS(), d.mean("srv.wire_server_rpc_latency_seconds", us)
	r.add("wire.client_rtt_mean_us", rtt, "us")
	r.add("wire.server_handle_mean_us", handle, "us")
	r.add("wire.transport_mean_us", rtt-handle, "us")
	r.add("wire.bytes_per_op", ratio(d.get("tap.sock_in")+d.get("tap.sock_out"), ops), "B")
	r.add("wire.write_syscalls_per_op", per("tap.sock_writes"), "count")
	r.add("wire.read_syscalls_per_op", per("tap.sock_reads"), "count")
	r.add("wire.frames_per_write", ratio(d.get("srv.wire_server_rpcs_total"), d.get("tap.sock_writes")), "count")

	hs := d.get("ratls.cold") + d.get("ratls.resumed")
	r.add("ratls.handshakes_per_op", ratio(hs, ops), "count")
	r.add("ratls.resumed_frac", ratio(d.get("ratls.resumed"), hs), "frac")
	r.add("ratls.handshake_p50_us", handshakeP50(t, ps, on), "us")

	r.add("slremote.renewals_per_op", per("slremote.renewals"), "count")
	r.add("slremote.denials_per_op", per("slremote.denials"), "count")
	r.add("slremote.batch_size_mean", ratio(d.get("slremote.renewals"), d.get("tap.wal_renew_appends")), "count")

	r.add("store.wal_appends_per_op", per("tap.wal_appends"), "count")
	r.add("store.wal_bytes_per_op", per("srv.store_wal_bytes_total"), "B")
	r.add("store.append_wait_p50_us", t.appendWait.quantileUS(0.50), "us")
	r.add("store.append_wait_p99_us", t.appendWait.quantileUS(0.99), "us")
	r.add("store.append_wait_mean_us", t.appendWait.meanUS(), "us")
	r.add("store.fsyncs_per_op", per("tap.fsyncs"), "count")
	r.add("store.fsync_p50_us", t.fsyncTime.quantileUS(0.50), "us")
	r.add("store.snapshots_per_kop", perK("tap.snapshots"), "count")
	r.add("store.snapshot_p50_ms", t.snapshotTime.quantileUS(0.50)/1e3, "ms")
	r.add("store.snapshot_bytes", d.g["tap.snapshot_bytes"], "B")

	r.add("audit.records_per_op", per("audit.records"), "count")
	r.add("audit.bytes_per_op", per("audit.bytes"), "B")

	r.add("sllocal.requests_per_op", per("sllocal.requests"), "count")
	r.add("sllocal.request_p50_us", d.quantile("sllocal.request", 0.50, us), "us")
	r.add("sllocal.request_p99_us", d.quantile("sllocal.request", 0.99, us), "us")
	r.add("sllocal.local_attests_per_op", per("sllocal.local_attests"), "count")
	r.add("sllocal.renewals_per_op", per("sllocal.renewals"), "count")
	r.add("sllocal.remote_wait_p50_us", t.renewTime.quantileUS(0.50), "us")
	r.add("sllocal.init_p50_us", t.initTime.quantileUS(0.50), "us")
	r.add("sllocal.shutdown_p50_us", t.shutTime.quantileUS(0.50), "us")
	auth := d.get("mgr.auth")
	r.add("slmanager.token_hit_frac", ratio(auth-d.get("mgr.token_requests"), auth), "frac")

	r.add("leasetree.commits_per_kop", perK("tree.commits"), "count")
	r.add("leasetree.restores_per_kop", perK("tree.restores"), "count")
	r.add("leasetree.evictions_per_kop", perK("tree.evictions"), "count")
	r.add("leasetree.footprint_kb", d.g["tree.footprint"]/1024, "KiB")

	r.add("sgx.ecalls_per_op", per("sgx.ecalls"), "count")
	r.add("sgx.epc_faults_per_op", per("sgx.epc_faults"), "count")
	r.add("sgx.virt_cycles_per_op", per("sgx.cycles"), "cycles")
	r.add("attest.local_attests_per_op", per("attest.local"), "count")
	r.add("attest.remote_attests_per_op", per("attest.remote"), "count")

	r.add("obs.dropped_label_values", snaps[len(snaps)-1].get("srv.obs_dropped_label_values_total"), "count")
	r.add("runtime.gc_cycles_per_kop", perK("rt.gcs"), "count")
	r.add("runtime.gc_cpu_frac", ratio(d.get("rt.gc_cpu"), d.get("rt.cpu")), "frac")
	r.add("bench.stalled_ops", float64(r.stalled), "count")
	r.add("bench.trace_overhead_frac", 1-ratio(throughput(traced), throughput(plain)), "frac")
	r.add("virt_us_per_op", per("sgx.virt_ns")/1e3, "us")
	r.add("fail_frac", ratio(failed, ops), "frac")

	r.notes = append(r.notes, fmt.Sprintf(
		"renewal split (means): client_rtt %.1f us = server_handle %.1f us + transport %.1f us; server_handle includes store.append_wait %.1f us",
		rtt, handle, rtt-handle, t.appendWait.meanUS()))
}

// throughput is successful ops per second over a set of windows.
func throughput(ps []*phase) float64 {
	var ok int64
	var el time.Duration
	for _, p := range ps {
		ok += p.lat.ok()
		el += p.elapsed
	}
	return ratio(float64(ok), el.Seconds())
}

// handshakeP50 is the median client-side RA-TLS handshake span among
// those that started in a timed window, in µs.
func handshakeP50(t *tap, ps []*phase, on []bool) float64 {
	if t.hs == nil {
		return 0
	}
	var ds []float64
	for _, ev := range t.hs.Events() {
		if ev.Name != "ratls.handshake" {
			continue
		}
		for i, p := range ps {
			if on[i] && !ev.Start.Before(p.start) && ev.Start.Before(p.start.Add(p.elapsed)) {
				ds = append(ds, float64(ev.Duration)/1e3)
			}
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return ds[(len(ds)-1)/2]
}
