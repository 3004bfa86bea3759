package main

import (
	"bytes"
	"io/fs"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/store"
)

// tap is the traced run's instrument. It measures only from outside the
// program, through seams the packages already take: a store.Logger and
// store.Snapshotter around the WAL, a store.FS under it, a net.Listener
// under the wire server, and an sllocal.RemoteAPI around the wire client.
//
// Counters always count, so they can be checked against the program's
// own counters over a whole run. Timings are taken only while on is set:
// the traced run alternates windows with timing off and on, and the
// throughput difference between them is the tracing overhead.
type tap struct {
	on atomic.Bool

	walAppends      atomic.Int64
	walRenewAppends atomic.Int64 // appends of renewal records (single or batch)
	appendWait      hist

	snapshots     atomic.Int64
	snapshotBytes atomic.Int64 // size of the newest snapshot image
	snapshotTime  hist

	fsyncs    atomic.Int64
	fsyncTime hist

	sockIn, sockOut       atomic.Int64
	sockReads, sockWrites atomic.Int64

	rpcTime   hist // every client-side wire round trip
	renewTime hist // SL-Local's waits on renewals
	initTime  hist // sllocal Init
	shutTime  hist // sllocal Shutdown

	// hs receives the client channels' ratls.handshake spans; nil when
	// untraced.
	hs *obs.Tracer
}

// timed runs fn and records its duration in h while timing is on.
func (t *tap) timed(h *hist, fn func() error) error {
	if !t.on.Load() {
		return fn()
	}
	start := time.Now()
	err := fn()
	h.observe(time.Since(start))
	return err
}

// renewPrefix starts every renewal WAL record, single or group-committed:
// slremote encodes its events as JSON objects whose first field is the
// opcode.
var renewPrefix = []byte(`{"op":"renew`)

// tapLog wraps the server's WAL Logger.
type tapLog struct {
	t    *tap
	next store.Logger
}

func (l tapLog) Append(rec []byte) error {
	l.t.walAppends.Add(1)
	if bytes.HasPrefix(rec, renewPrefix) {
		l.t.walRenewAppends.Add(1)
	}
	return l.t.timed(&l.t.appendWait, func() error { return l.next.Append(rec) })
}

// tapSnap wraps the server's Snapshotter.
type tapSnap struct {
	t    *tap
	next store.Snapshotter
}

func (s tapSnap) Snapshot(state []byte) error {
	s.t.snapshots.Add(1)
	s.t.snapshotBytes.Store(int64(len(state)))
	return s.t.timed(&s.t.snapshotTime, func() error { return s.next.Snapshot(state) })
}

// tapFS wraps the store's filesystem to count and time fsyncs.
type tapFS struct {
	store.FS
	t *tap
}

func (f tapFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tapFile{File: file, t: f.t}, nil
}

type tapFile struct {
	store.File
	t *tap
}

func (f tapFile) Sync() error {
	f.t.fsyncs.Add(1)
	return f.t.timed(&f.t.fsyncTime, f.File.Sync)
}

// tapListener hands the wire server connections that count socket bytes
// and read/write calls below the channel layer.
type tapListener struct {
	net.Listener
	t *tap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{Conn: c, t: l.t}, nil
}

type tapConn struct {
	net.Conn
	t *tap
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.sockReads.Add(1)
	c.t.sockIn.Add(int64(n))
	return n, err
}

func (c tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.sockWrites.Add(1)
	c.t.sockOut.Add(int64(n))
	return n, err
}

// remote is SL-Local's RemoteAPI as the benchmark hands it over: every
// grant the client sees goes into the ledger the correctness checks
// compare with the server, and in the traced run each round trip is timed.
// Untraced runs pass a tap that is never switched on.
type remote struct {
	next sllocal.RemoteAPI
	led  *ledger
	t    *tap
}

func (r remote) InitClient(slid string, q attest.Quote, m *sgx.Machine) (res slremote.InitResult, err error) {
	err = r.t.timed(&r.t.rpcTime, func() error {
		res, err = r.next.InitClient(slid, q, m)
		return err
	})
	return res, err
}

func (r remote) RenewLease(slid, license string) (g slremote.Grant, err error) {
	err = r.t.timed(&r.t.renewTime, func() error {
		return r.t.timed(&r.t.rpcTime, func() error {
			g, err = r.next.RenewLease(slid, license)
			return err
		})
	})
	r.led.renewed(slid, license, g.Units, err)
	return g, err
}

func (r remote) EscrowRootKey(slid string, key seccrypto.Key) error {
	return r.t.timed(&r.t.rpcTime, func() error { return r.next.EscrowRootKey(slid, key) })
}
