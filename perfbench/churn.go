package main

import (
	"fmt"
	"sync"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/wire"
)

// churn is session_churn: whole SL-Local lifecycles. A fixed pool of
// machines keeps its RA-TLS configs and untrusted state, so returning
// machines resume their handshakes and restore their lease trees; a
// seeded share of sessions crash instead of shutting down, so their next
// session forfeits and renews again. Each session runs the apps of the
// paper's catalog installed on its machine. One op is one session: dial, New and
// Init, a few RequestTokens, Shutdown or Crash, Close. Init, escrow and
// first-sight renewals are single-record WAL commits that do not coalesce.
type churn struct {
	base
	licenses []string
	machines []*churnMachine
	gens     []*churnGen
	sessions int // concurrent sessions

	mu  sync.Mutex // guards acc
	acc counters   // counters of finished sessions
}

type churnMachine struct {
	m       *sgx.Machine
	plat    *attest.Platform
	rc      *ratls.Config
	app     *sgx.Enclave
	state   *sllocal.UntrustedState
	crashed bool // the last session crashed: the next init forfeits
}

// churnSessions is how many sessions run at a time.
const churnSessions = 2

func newChurn(b base, dir string) (*churn, error) {
	// Algorithm 1 prices a grant at TotalGCL/(4·C²) for C live holders, so
	// a license absorbs about 4·C² renewals. Each of the catalog's 11
	// licenses has 3/11 of the machines as holders, less those that
	// crashed; 128 machines give C ≈ 28 and room for ~3,000 renewals per
	// license, against ~0.65 per session (3 licenses × the 21.5% crash
	// share that forces renewal).
	machines := 128
	if b.o.small {
		machines = 24
	}
	c := &churn{base: b, sessions: churnSessions}
	var specs []licenseSpec
	for _, app := range catalog() {
		c.licenses = append(c.licenses, app.license)
		specs = append(specs, licenseSpec{app.license, lease.CountBased, countTotal})
	}
	if err := c.start(dir, specs); err != nil {
		return nil, err
	}
	if err := c.setup(machines); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *churn) setup(machines int) error {
	for i := 0; i < machines; i++ {
		name := fmt.Sprintf("churn-%02d", i)
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: name})
		if err != nil {
			return err
		}
		cm := &churnMachine{m: m, state: &sllocal.UntrustedState{}}
		if cm.plat, err = attest.NewPlatform(name, m); err != nil {
			return err
		}
		if cm.rc, err = c.channel(name, m); err != nil {
			return err
		}
		if cm.app, err = m.CreateEnclave("app", []byte("perfbench/churn-app"), 0); err != nil {
			return err
		}
		c.machines = append(c.machines, cm)
	}
	// Warm-up: one graceful session per machine that takes the licenses
	// of its apps, so every machine holds them and has a ticket to resume.
	if err := parallel(len(c.machines), c.sessions, func(i int) error {
		return c.run(c.machines[i], session{licenses: installed(i, len(c.licenses))})
	}); err != nil {
		return fmt.Errorf("warm-up sessions: %w", err)
	}
	for w := 0; w < c.sessions; w++ {
		c.gens = append(c.gens, newChurnGen(c.o.seed, w, c.sessions, len(c.machines)/c.sessions, len(c.licenses)))
	}
	return nil
}

func (c *churn) workers() int { return c.sessions }

// op runs the worker's next scripted session on one of the worker's own
// machines (machine indexes congruent to w), so no machine ever runs two
// sessions at once.
func (c *churn) op(w int, _ uint64) error {
	s := c.gens[w].next()
	return c.run(c.machines[s.machine*c.sessions+w], s)
}

// run is one SL-Local lifecycle on cm.
func (c *churn) run(cm *churnMachine, s session) error {
	client, err := wire.Dial(c.srv.addr, cm.rc)
	if err != nil {
		return err
	}
	defer client.Close()
	svc, err := sllocal.New(sllocal.Config{TokenBatch: tokenBatch}, sllocal.Deps{
		Machine: cm.m, Platform: cm.plat, Remote: remote{next: client, led: c.led, t: c.t}, State: cm.state,
	})
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if c.o.trace {
		reg = obs.NewRegistry()
		svc.ExposeMetrics(reg, nil)
	}
	if err := c.t.timed(&c.t.initTime, svc.Init); err != nil {
		c.led.doubt(cm.state.SLID)
		return err
	}
	if cm.crashed {
		c.led.forfeit(svc.SLID())
		cm.crashed = false
	}
	var opErr error
	for _, l := range s.licenses {
		tok, err := svc.RequestToken(cm.app, c.licenses[l])
		if err == nil && (tok.License != c.licenses[l] || tok.Grants != tokenBatch) {
			err = fmt.Errorf("%w: token for %s: %+v", errWrong, c.licenses[l], tok)
		}
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	footprint := svc.TreeFootprint()
	if s.crash {
		svc.Crash()
		cm.crashed = true
	} else if err := c.t.timed(&c.t.shutTime, svc.Shutdown); err != nil {
		// Without a confirmed escrow the server forfeits at the next init;
		// whether the escrow landed is unknown.
		c.led.doubt(svc.SLID())
		cm.crashed = true
		if opErr == nil {
			opErr = err
		}
	}
	c.account(svc, reg, footprint)
	return opErr
}

// account folds a finished session's SL-Local counters into the totals;
// footprint is its lease tree's size before the session ended.
func (c *churn) account(svc *sllocal.Service, reg *obs.Registry, footprint int64) {
	st := svc.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acc.init()
	c.acc.add("sllocal.requests", float64(st.Requests))
	c.acc.add("sllocal.local_attests", float64(st.LocalAttests))
	c.acc.add("sllocal.renewals", float64(st.Renewals))
	c.acc.g["tree.footprint"] = float64(footprint) // the latest session's
	if reg != nil {
		addServiceExport(&c.acc, reg)
	}
}

func (c *churn) counters(cs *counters) {
	c.mu.Lock()
	for k, x := range c.acc.v {
		cs.add(k, x)
	}
	for k, x := range c.acc.g {
		cs.gauge(k, x)
	}
	for k, h := range c.acc.h {
		cs.addHist(k, h.bounds, h.counts, h.sum, h.count)
	}
	c.mu.Unlock()
	ms := make([]*sgx.Machine, len(c.machines))
	for i, cm := range c.machines {
		ms[i] = cm.m
	}
	machineCounters(cs, ms)
}

func (c *churn) finish() error {
	_, err := c.finishServer()
	return err
}

func (c *churn) close() { c.srv.stop() }
