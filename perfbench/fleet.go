package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// fleet is renew_fleet: the license vendor's hot path. A fleet of SLIDs,
// each holding the count licenses of the catalog apps it runs plus a
// perpetual seat, renews through one pooled RA-TLS wire client with many
// requests in flight. One op is one wire.Client.RenewLease; SL-Local,
// SL-Manager and the lease tree do no work here.
type fleet struct {
	base
	gen      fleetGen
	inflight int
	machine  *sgx.Machine
	client   *wire.Client
	slids    []string
	lics     []string // index gen.licenses is the perpetual license
}

const (
	fleetPool      = 2 // wire connections: nproc on the reference box
	perpetualSeats = countTotal

	warmupRoundPerWorker = 32 // warm-up renewals per in-flight slot between drains
)

func newFleet(b base, dir string) (*fleet, error) {
	apps := catalog()
	f := &fleet{base: b, gen: fleetGen{seed: uint64(b.o.seed), slids: 2048, licenses: len(apps)}, inflight: 32}
	if b.o.small {
		f.gen.slids, f.inflight = 64, 8
	}
	var specs []licenseSpec
	for _, a := range apps {
		f.lics = append(f.lics, a.license)
		specs = append(specs, licenseSpec{a.license, lease.CountBased, countTotal})
	}
	f.lics = append(f.lics, "fleet-perpetual")
	specs = append(specs, licenseSpec{"fleet-perpetual", lease.Perpetual, perpetualSeats})
	if err := f.start(dir, specs); err != nil {
		return nil, err
	}
	if err := f.setup(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setup initializes the fleet's SLIDs and renews every (SLID, license)
// pair once, so holder sets and snapshot size are steady before timing.
func (f *fleet) setup() error {
	var err error
	if f.machine, err = sgx.NewMachine(sgx.MachineConfig{Name: "fleet-gateway"}); err != nil {
		return err
	}
	rc, err := f.channel("fleet-gateway", f.machine)
	if err != nil {
		return err
	}
	// Under unbroken load the coalescing leader's own renewal gets no
	// reply until the load stops (README.md, first target 3). With the
	// client's default deadline that renewal would fail as a timeout in
	// some runs and not others; the fleet's deadline outlasts the run
	// instead, so it completes late and counts as a stalled op, with its
	// full latency. A reply that misses even this deadline still fails.
	if f.client, err = wire.DialTimeout(f.srv.addr, seconds(f.o.seconds)+wire.DefaultTimeout, rc); err != nil {
		return err
	}
	f.client.SetPoolSize(fleetPool)

	// Every SLID presents a quote from an SL-Local enclave, as init does.
	plat, err := attest.NewPlatform("fleet-gateway", f.machine)
	if err != nil {
		return err
	}
	enc, err := f.machine.CreateEnclave("sl-local", sllocal.EnclaveCodeIdentity, 0)
	if err != nil {
		return err
	}
	quote, err := plat.CreateQuote(enc, nil)
	if err != nil {
		return err
	}
	f.slids = make([]string, f.gen.slids)
	if err := parallel(f.gen.slids, f.inflight, func(i int) error {
		res, err := f.client.InitClient("", quote, nil)
		if err == nil && res.SLID == "" {
			err = fmt.Errorf("init returned no SLID")
		}
		f.slids[i] = res.SLID
		return err
	}); err != nil {
		return fmt.Errorf("initializing the fleet: %w", err)
	}
	// The server numbers SLIDs in arrival order; sort numerically so SLID
	// index i names the same identity in every run.
	sort.Slice(f.slids, func(a, b int) bool { return slidNum(f.slids[a]) < slidNum(f.slids[b]) })

	// The warm-up runs in rounds that each drain completely. Under
	// unbroken load the coalescing leader's own renewal gets no reply
	// until the load stops; the rounds keep set-up from stalling on that,
	// while the timed window keeps the load unbroken and shows it.
	pairs := f.gen.warmup()
	round := f.inflight * warmupRoundPerWorker
	for lo := 0; lo < len(pairs); lo += round {
		batch := pairs[lo:min(lo+round, len(pairs))]
		if err := parallel(len(batch), f.inflight, func(i int) error {
			return f.renew(batch[i][0], batch[i][1])
		}); err != nil {
			return fmt.Errorf("warm-up renewals: %w", err)
		}
	}
	return nil
}

func slidNum(s string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(s, "slid-")) // server-assigned, always slid-<n>
	return n
}

// renew is one renewal, checked: the grant must name the license, carry
// its kind, and be positive (exactly one seat for the perpetual license).
func (f *fleet) renew(slid, lic int) error {
	var g slremote.Grant
	err := f.t.timed(&f.t.rpcTime, func() (err error) {
		g, err = f.client.RenewLease(f.slids[slid], f.lics[lic])
		return err
	})
	f.led.renewed(f.slids[slid], f.lics[lic], g.Units, err)
	if err != nil {
		return err
	}
	perpetual := lic == f.gen.licenses
	switch {
	case g.License != f.lics[lic],
		g.Units <= 0,
		perpetual && (g.Units != 1 || g.GCL.Kind != lease.Perpetual),
		!perpetual && g.GCL.Kind != lease.CountBased:
		return fmt.Errorf("%w: renewal of %s for %s returned %+v", errWrong, f.lics[lic], f.slids[slid], g)
	}
	return nil
}

func (f *fleet) workers() int { return f.inflight }

func (f *fleet) op(w int, i uint64) error { return f.renew(f.gen.op(w, i)) }

func (f *fleet) counters(c *counters) { machineCounters(c, []*sgx.Machine{f.machine}) }

func (f *fleet) finish() error {
	f.client.Close()
	_, err := f.finishServer()
	return err
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	f.srv.stop()
}
