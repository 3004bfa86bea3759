package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// countTotal is every count license's TotalGCL. Algorithm 1 grants each of
// C healthy holders TotalGCL/(4·C²), so a license absorbs about 4·C²
// renewals; with this budget no pool in any workload can run dry within a
// run, and no renewal is denied.
const countTotal = 1 << 40

// newWorkload builds the named workload on a fresh deployment in dir and
// warms it up; the time it takes is the run's set-up time.
func newWorkload(o options, dir string) (workload, error) {
	b := base{o: o, t: &tap{}, led: newLedger()}
	if o.trace {
		b.t.hs = obs.NewTracer(1 << 16)
	}
	switch o.workload {
	case "renew_fleet":
		return newFleet(b, dir)
	case "app_exec":
		return newAppExec(b, dir)
	case "session_churn":
		return newChurn(b, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q (want renew_fleet, app_exec or session_churn)", o.workload)
	}
}

// base is what every workload shares: the server, the tap, and the
// client-side grant ledger.
type base struct {
	o   options
	srv *server
	t   *tap
	led *ledger
}

func (b *base) server() *server { return b.srv }

// start boots the server; the tap goes under it only in the traced run.
func (b *base) start(dir string, licenses []licenseSpec) error {
	var t *tap
	if b.o.trace {
		t = b.t
	}
	var err error
	b.srv, err = startServer(dir, licenses, t, b.o.insecure)
	return err
}

// channel builds a client machine's RA-TLS config; in the traced run its
// handshake spans go to the tap.
func (b *base) channel(name string, m *sgx.Machine) (*ratls.Config, error) {
	rc, err := clientChannel(name, m, b.o.insecure)
	if err != nil {
		return nil, err
	}
	if b.t.hs != nil {
		rc.ExposeMetrics(obs.NewRegistry(), b.t.hs)
	}
	return rc, nil
}

// finishServer drains the server and runs the checks every workload
// shares: audit verification, recovery equality, lease conservation, no
// denials, the client ledger against the server's, and — in the traced
// run — the tap's counts against the program's own.
func (b *base) finishServer() (slremote.State, error) {
	st, err := b.srv.finish()
	if err != nil {
		return st, err
	}
	if err := checkServerState(st); err != nil {
		return st, err
	}
	if err := b.led.compare(st); err != nil {
		return st, fmt.Errorf("client-observed grants vs server ledger: %w", err)
	}
	if b.srv.tap != nil {
		if err := crossCheck(b.srv); err != nil {
			return st, fmt.Errorf("tap cross-check: %w", err)
		}
	}
	return st, nil
}

// crossCheck compares the tap's counts with the program's counters over
// the whole run: WAL appends exactly, socket bytes against frame bytes
// (equal on a plaintext channel; larger under RA-TLS by the record and
// handshake overhead).
func crossCheck(s *server) error {
	var c counters
	c.addExport("", s.reg.Export())
	t := s.tap
	if got, want := float64(t.walAppends.Load()), c.get("store_wal_appends_total"); got != want {
		return fmt.Errorf("wrapper counted %.0f WAL appends, store_wal_appends_total is %.0f", got, want)
	}
	in, out := float64(t.sockIn.Load()), float64(t.sockOut.Load())
	fin, fout := c.get("wire_server_bytes_received_total"), c.get("wire_server_bytes_sent_total")
	if s.rc.IsInsecure() {
		if in != fin || out != fout {
			return fmt.Errorf("socket bytes in/out %.0f/%.0f, wire_server_bytes_received/sent_total %.0f/%.0f", in, out, fin, fout)
		}
	} else if in <= fin || out <= fout {
		return fmt.Errorf("socket bytes in/out %.0f/%.0f do not exceed the frame bytes %.0f/%.0f under RA-TLS", in, out, fin, fout)
	}
	return nil
}

// machineCounters adds client machines' SGX accounting to c.
func machineCounters(c *counters, ms []*sgx.Machine) {
	for _, m := range ms {
		st := m.Stats()
		c.add("sgx.ecalls", float64(st.ECalls))
		c.add("sgx.epc_faults", float64(st.EPCFaults))
		c.add("attest.local", float64(st.LocalAttests))
		c.add("attest.remote", float64(st.RemoteAttests))
		cycles := m.Clock().Now()
		c.add("sgx.cycles", float64(cycles))
		c.add("sgx.virt_ns", float64(m.Model().CyclesToDuration(cycles).Nanoseconds()))
	}
}

// parallel runs fn(0..n-1) on width goroutines and returns the first
// error.
func parallel(n, width int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
