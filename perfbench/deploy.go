package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/audit"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// The deployment is the one cmd/sl-remote stands up with its defaults and
// a state directory: batched fsync, WAL snapshots every 1024 records, a
// sealed audit log next to the WAL, RA-TLS on the wire, and metrics and
// spans always recorded. Clients dial it as cmd/sl-local does.
const (
	snapshotEvery = 1024 // cmd/sl-remote's -snapshot-every default
	traceBuffer   = 4096 // cmd/sl-remote's -trace-buffer default
	channelSecret = "perfbench-channel"
	sealSecret    = "perfbench-seal"
)

// licenseSpec is one license the workload registers at boot, as the
// -license flag does.
type licenseSpec struct {
	id    string
	kind  lease.Kind
	total int64
}

// server is one running SL-Remote daemon, in-process on loopback TCP.
type server struct {
	dir     string
	sealKey seccrypto.Key
	reg     *obs.Registry
	st      *store.Store
	remote  *slremote.Server
	audit   *audit.Log
	srv     *wire.Server
	rc      *ratls.Config
	addr    string
	served  chan error
	tap     *tap // nil in untimed runs
}

func sealKey() (seccrypto.Key, error) {
	sum := sha256.Sum256([]byte(sealSecret))
	return seccrypto.KeyFromBytes(sum[:seccrypto.KeySize])
}

// startServer boots SL-Remote on dir in cmd/sl-remote's order: audit log,
// store recovery, licenses, audit attach, channel, metrics, listener. A
// non-nil tap is threaded through the persistence and socket seams.
// insecure swaps RA-TLS for plaintext; only the wrapper cross-check uses it.
func startServer(dir string, licenses []licenseSpec, t *tap, insecure bool) (*server, error) {
	key, err := sealKey()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	s := &server{dir: dir, sealKey: key, reg: obs.NewRegistry(), tap: t}
	tracer := obs.NewTracer(traceBuffer)
	rec := flight.NewRecorder(flight.DefaultCapacity)
	tracer.ExposeMetrics(s.reg)
	rec.ExposeMetrics(s.reg)

	s.audit, err = audit.Open(filepath.Join(dir, "audit.log"), key)
	if err != nil {
		return nil, err
	}
	opts := store.Options{Dir: dir, Mode: store.SyncBatched, Metrics: store.ExposeMetrics(s.reg)}
	if t != nil {
		opts.FS = tapFS{FS: store.OSFS(), t: t}
	}
	st, recovered, err := store.Open(opts)
	if err != nil {
		s.audit.Close()
		return nil, err
	}
	s.st = st
	pc := slremote.PersistConfig{Log: st, Snap: st, SealKey: key, SnapshotEvery: snapshotEvery}
	if t != nil {
		pc.Log, pc.Snap = tapLog{t: t, next: st}, tapSnap{t: t, next: st}
	}
	if s.remote, err = slremote.RecoverServer(slremote.DefaultConfig(), nil, recovered, pc); err != nil {
		s.closeFiles()
		return nil, err
	}
	for _, l := range licenses {
		if err := s.remote.RegisterLicense(l.id, l.kind, l.total); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	s.remote.AttachAudit(s.audit)

	if insecure {
		s.rc = ratls.Insecure()
	} else {
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: "sl-remote"})
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		s.rc, err = ratls.NewProvisioned("sl-remote", m, []byte(channelSecret), slremote.EnclaveCodeIdentity, sllocal.EnclaveCodeIdentity)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	logger := log.New(os.Stderr, "sl-remote: ", log.Lmicroseconds)
	if s.srv, err = wire.NewServer(s.remote, logger.Printf, s.rc); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.remote.ExposeMetrics(s.reg)
	s.srv.ExposeMetrics(s.reg, tracer)
	s.audit.ExposeMetrics(s.reg)
	s.rc.ExposeMetrics(s.reg, tracer)
	s.remote.SetFlightRecorder(rec)
	s.srv.SetFlightRecorder(rec)
	s.rc.SetFlightRecorder(rec)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.addr = ln.Addr().String()
	if t != nil {
		ln = tapListener{Listener: ln, t: t}
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) closeFiles() {
	if s.st != nil {
		s.st.Close()
	}
	s.audit.Close()
}

// drain stops the listener and waits for every in-flight request to be
// answered, as the daemon's SIGTERM path does.
func (s *server) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), wire.DefaultTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// stop drains and closes everything without checking; for set-ups that
// are discarded and for error paths.
func (s *server) stop() {
	_ = s.drain() // best effort: the deployment is being thrown away
	s.closeFiles()
}

// finish drains the server and runs the durable-state checks: the audit
// chain verifies, and a server recovered from the state directory equals
// the live one. It returns the live state for the workload's own checks.
func (s *server) finish() (slremote.State, error) {
	if err := s.drain(); err != nil {
		s.closeFiles()
		return slremote.State{}, fmt.Errorf("draining the server: %w", err)
	}
	live := s.remote.ExportState()
	if err := s.audit.Verify(); err != nil {
		s.closeFiles()
		return live, fmt.Errorf("audit chain: %w", err)
	}
	if err := s.audit.Close(); err != nil {
		s.st.Close()
		return live, fmt.Errorf("closing the audit log: %w", err)
	}
	if err := s.st.Close(); err != nil {
		return live, fmt.Errorf("closing the store: %w", err)
	}
	st, recovered, err := store.Open(store.Options{Dir: s.dir, Mode: store.SyncBatched})
	if err != nil {
		return live, fmt.Errorf("reopening the state directory: %w", err)
	}
	defer st.Close()
	again, err := slremote.RecoverServer(slremote.DefaultConfig(), nil, recovered,
		slremote.PersistConfig{Log: st, Snap: st, SealKey: s.sealKey, SnapshotEvery: snapshotEvery})
	if err != nil {
		return live, fmt.Errorf("recovering from the state directory: %w", err)
	}
	if !reflect.DeepEqual(again.ExportState(), live) {
		return live, fmt.Errorf("the server recovered from %s differs from the live one", s.dir)
	}
	return live, nil
}

// auditBytes is the audit file's size, for the per-layer byte count.
func (s *server) auditBytes() int64 {
	fi, err := os.Stat(filepath.Join(s.dir, "audit.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// clientChannel is the RA-TLS config an SL-Local daemon builds on its
// machine (cmd/sl-local's default channel).
func clientChannel(name string, m *sgx.Machine, insecure bool) (*ratls.Config, error) {
	if insecure {
		return ratls.Insecure(), nil
	}
	return ratls.NewProvisioned(name, m, []byte(channelSecret), sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
}
