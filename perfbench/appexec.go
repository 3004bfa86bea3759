package main

import (
	"fmt"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/leasetree"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slmanager"
	"repro/internal/wire"
)

// appExec is app_exec: the end user's check path in the shape of the
// paper's FaaS and plugin scenarios. Two client machines each run SL-Local
// over RA-TLS to the server and one enclave per application of the
// paper's catalog, whose SL-Manager guards the app's key functions under
// its license; a few callers execute key functions with the catalog's
// check skew. One op is one slmanager.Manager.Execute of a trivial guarded
// function. Grants outlast the run, so the wire, the store and SL-Remote
// are idle after warm-up.
type appExec struct {
	base
	machines []*appMachine
	callers  []*caller
}

type appMachine struct {
	m       *sgx.Machine
	client  *wire.Client
	svc     *sllocal.Service
	reg     *obs.Registry // SL-Local's metrics, traced run only
	mgrs    []*slmanager.Manager
	funcs   []guarded
	warmRan int64 // bodies run in warm-up
}

type guarded struct {
	mgr  *slmanager.Manager
	name string
}

// caller is one app_exec caller's own state: its precomputed call stream,
// the guarded body it passes, and its tallies. Only its goroutine touches
// it while the run lasts, and the padding keeps two callers' tallies off
// one cache line.
type caller struct {
	m        *appMachine
	stream   []uint16 // indexes into m.funcs
	body     func() error
	ran      int64 // bodies run
	executed int64 // successful Executes
	_        [64]byte
}

const (
	appMachines = 2
	tokenBatch  = 10 // sllocal.DefaultConfig's grants per local attestation
)

func newAppExec(b base, dir string) (*appExec, error) {
	apps := catalog()
	callers := 4
	if b.o.small {
		callers = 2
	}
	budget, err := treeBudget(len(apps))
	if err != nil {
		return nil, err
	}
	a := &appExec{base: b}
	var specs []licenseSpec
	for _, app := range apps {
		specs = append(specs, licenseSpec{app.license, lease.CountBased, countTotal})
	}
	if err := a.start(dir, specs); err != nil {
		return nil, err
	}
	if err := a.setup(apps, callers, budget); err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// treeBudget is the SL-Local tree budget for a machine holding n leases:
// the footprint of its lease tree with every lease resident, less half
// the leases' records. The lease working set is then about twice what the
// budget leaves room for; the tree's interior nodes, which stay resident
// while any record under them is, are budgeted in full. The tree is laid
// out as SL-Local lays out its own: one application block of lease IDs.
func treeBudget(n int) (int64, error) {
	t := leasetree.NewTree()
	blk := leasetree.NewIDAllocator().NextBlock()
	for i := 0; i < n; i++ {
		id, _ := blk.Next() // a block holds 256 IDs
		if err := t.Put(lease.Record{ID: id, GCL: lease.GCL{Kind: lease.CountBased}}); err != nil {
			return 0, err
		}
	}
	return t.Footprint() - int64(n)*lease.RecordSize/2, nil
}

func (a *appExec) setup(apps []catalogApp, callers int, budget int64) error {
	for i := 0; i < appMachines; i++ {
		name := fmt.Sprintf("client-%d", i)
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: name})
		if err != nil {
			return err
		}
		am := &appMachine{m: m}
		a.machines = append(a.machines, am)
		plat, err := attest.NewPlatform(name, m)
		if err != nil {
			return err
		}
		rc, err := a.channel(name, m)
		if err != nil {
			return err
		}
		if am.client, err = wire.Dial(a.srv.addr, rc); err != nil {
			return err
		}
		am.svc, err = sllocal.New(sllocal.Config{TokenBatch: tokenBatch, MemoryBudget: budget}, sllocal.Deps{
			Machine: m, Platform: plat, Remote: remote{next: am.client, led: a.led, t: a.t}, State: &sllocal.UntrustedState{},
		})
		if err != nil {
			return err
		}
		if a.o.trace {
			am.reg = obs.NewRegistry()
			am.svc.ExposeMetrics(am.reg, nil)
		}
		if err := am.svc.Init(); err != nil {
			return err
		}
		for _, app := range apps {
			enc, err := m.CreateEnclave(app.name, []byte("perfbench/"+app.name), 0)
			if err != nil {
				return err
			}
			mgr, err := slmanager.New(enc, am.svc)
			if err != nil {
				return err
			}
			am.mgrs = append(am.mgrs, mgr)
			for _, fn := range app.funcs {
				mgr.Guard(fn, app.license)
				am.funcs = append(am.funcs, guarded{mgr: mgr, name: fn})
			}
		}
	}
	// Warm-up: every function runs once on every machine, so each lease
	// is fetched from SL-Remote before timing starts.
	if err := parallel(len(a.machines), len(a.machines), func(i int) error {
		am := a.machines[i]
		body := func() error { am.warmRan++; return nil }
		for _, g := range am.funcs {
			if err := g.mgr.Execute(g.name, body); err != nil {
				return fmt.Errorf("warm-up of %s: %w", g.name, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for w := 0; w < callers; w++ {
		c := &caller{m: a.machines[w%len(a.machines)], stream: callStream(a.o.seed, w, apps)}
		c.body = func() error { c.ran++; return nil }
		a.callers = append(a.callers, c)
	}
	return nil
}

func (a *appExec) workers() int { return len(a.callers) }

// op executes the caller's next function on the caller's machine and
// checks that the guarded body ran exactly once.
func (a *appExec) op(w int, i uint64) error {
	c := a.callers[w]
	g := c.m.funcs[c.stream[i%callStreamLen]]
	before := c.ran
	if err := g.mgr.Execute(g.name, c.body); err != nil {
		return err
	}
	c.executed++
	if c.ran != before+1 {
		return fmt.Errorf("%w: %s ran %d times", errWrong, g.name, c.ran-before)
	}
	return nil
}

func (a *appExec) counters(c *counters) {
	ms := make([]*sgx.Machine, 0, len(a.machines))
	for _, am := range a.machines {
		ms = append(ms, am.m)
		st := am.svc.Stats()
		c.add("sllocal.requests", float64(st.Requests))
		c.add("sllocal.local_attests", float64(st.LocalAttests))
		c.add("sllocal.renewals", float64(st.Renewals))
		for _, mgr := range am.mgrs {
			mst := mgr.Stats()
			c.add("mgr.auth", float64(mst.Authorizations))
			c.add("mgr.token_requests", float64(mst.TokenRequests))
		}
		c.gauge("tree.footprint", float64(am.svc.TreeFootprint()))
		if am.reg != nil {
			addServiceExport(c, am.reg)
		}
	}
	machineCounters(c, ms)
}

// addServiceExport folds one SL-Local registry's lease-tree counters and
// request-latency histogram into c.
func addServiceExport(c *counters, reg *obs.Registry) {
	var s counters
	s.addExport("", reg.Export())
	c.add("tree.commits", s.get("sllocal_tree_commits_total"))
	c.add("tree.restores", s.get("sllocal_tree_restores_total"))
	c.add("tree.evictions", s.get("sllocal_tree_evictions_total"))
	if h := s.h["sllocal_request_latency_seconds"]; h != nil {
		c.addHist("sllocal.request", h.bounds, h.counts, h.sum, h.count)
	}
}

// finish checks that every successful Execute ran its body once and that
// the server's ledger matches the grants the machines received.
func (a *appExec) finish() error {
	var bodies, executed int64
	for _, am := range a.machines {
		bodies += am.warmRan
		executed += int64(len(am.funcs))
		am.client.Close()
	}
	for _, c := range a.callers {
		bodies += c.ran
		executed += c.executed
	}
	if bodies != executed {
		return fmt.Errorf("%d guarded bodies ran for %d successful Executes", bodies, executed)
	}
	_, err := a.finishServer()
	return err
}

func (a *appExec) close() {
	for _, am := range a.machines {
		if am.client != nil {
			am.client.Close()
		}
	}
	a.srv.stop()
}
