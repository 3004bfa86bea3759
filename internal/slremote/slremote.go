// Package slremote implements SL-Remote, SecureLease's trusted license
// server (Sections 4.4, 5.1, 5.3 of the paper). SL-Remote:
//
//   - registers licenses, each with a total GCL budget TG shared by a
//     multi-party group of client machines;
//   - remote-attests every SL-Local instance once at initialization and
//     assigns it a stable SLID;
//   - escrows each SL-Local's lease-tree root key at graceful shutdown and
//     releases it (the "old backup key", OBK) at the next initialization —
//     the mechanism that defeats replay of stale lease trees;
//   - renews leases with the adaptive policy of Algorithm 1, sizing the
//     sub-GCL g_i granted to client i from its concurrency share α_i, the
//     scale-down factor D, node health h_i, network reliability n_i, and
//     the per-license expected-loss bound τ with scale factor β;
//   - applies the pessimistic crash policy (Section 5.7): a crashed
//     SL-Local forfeits every GCL it held.
package slremote

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/lease"
	"repro/internal/obs/flight"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
)

// EnclaveCodeIdentity is the byte identity of the SL-Remote server
// enclave code; its sgx.MeasurementOf is what SL-Local daemons pin when
// they attest the server end of the wire channel.
var EnclaveCodeIdentity = []byte("securelease/sl-remote/v1")

// Errors returned by SL-Remote operations.
var (
	// ErrUnknownLicense reports an unregistered license ID.
	ErrUnknownLicense = errors.New("slremote: unknown license")
	// ErrUnknownClient reports an SLID that never initialized.
	ErrUnknownClient = errors.New("slremote: unknown client")
	// ErrLicenseExhausted reports a license whose global GCL pool is empty.
	ErrLicenseExhausted = errors.New("slremote: license exhausted")
	// ErrLicenseRevoked reports a revoked license.
	ErrLicenseRevoked = errors.New("slremote: license revoked")
	// ErrAttestationFailed reports a client that failed remote attestation.
	ErrAttestationFailed = errors.New("slremote: remote attestation failed")
	// ErrNoEscrow reports a re-initialization with no escrowed root key
	// (first boot, or state discarded after a crash).
	ErrNoEscrow = errors.New("slremote: no escrowed root key")
)

// Config tunes Algorithm 1. The defaults match the paper's evaluation
// setup (Section 7.4).
type Config struct {
	// D is the default scale-down factor: g_i starts at G_i / D.
	// The paper uses g_i = 25% of G_i, i.e. D = 4.
	D float64
	// HealthThreshold is T_H: only clients healthier than this receive the
	// network-compensation benefit. The paper uses 0.9.
	HealthThreshold float64
	// Beta is the initial per-license scale-down factor β (paper: 0.01).
	Beta float64
	// TauFraction sets each license's expected-loss bound τ as a fraction
	// of its total GCL (paper: 10%).
	TauFraction float64
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		D:               4,
		HealthThreshold: 0.9,
		Beta:            0.01,
		TauFraction:     0.10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.D < 1 {
		return fmt.Errorf("slremote: D must be >= 1, got %v", c.D)
	}
	if c.HealthThreshold < 0 || c.HealthThreshold > 1 {
		return fmt.Errorf("slremote: health threshold must be in [0,1], got %v", c.HealthThreshold)
	}
	if c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("slremote: beta must be in (0,1], got %v", c.Beta)
	}
	if c.TauFraction <= 0 || c.TauFraction > 1 {
		return fmt.Errorf("slremote: tau fraction must be in (0,1], got %v", c.TauFraction)
	}
	return nil
}

// License is one registered license with its global GCL pool.
type License struct {
	ID string
	// Kind of lease this license's GCLs represent.
	Kind lease.Kind
	// TotalGCL is TG: the total number of GCL units the license may ever
	// hand out across all clients.
	TotalGCL int64
	// Interval is the discretization step for time-based and
	// execution-time-based licenses (defaults to 24h, the paper's
	// one-day evaluation-period example).
	Interval time.Duration
	// Remaining is the undistributed portion of TotalGCL.
	Remaining int64
	// Tau is the absolute expected-loss bound τ for this license.
	Tau float64
	// Revoked marks the license dead; all renewals are refused.
	Revoked bool
	// Lost counts GCL units forfeited by crashed clients.
	Lost int64
	// Consumed counts GCL units clients reported as spent (ConsumeReport).
	// Together the counters satisfy the conservation law the chaos harness
	// checks: TotalGCL == Remaining + Σ outstanding + Consumed + Lost.
	Consumed int64
}

// clientState is SL-Remote's view of one SL-Local instance.
type clientState struct {
	slid        string
	health      float64 // h_i ∈ [0,1]
	reliability float64 // n_i ∈ (0,1]
	weight      float64 // α_i (normalized across concurrent clients at use)
	escrow      seccrypto.Key
	hasEscrow   bool
	// outstanding maps license ID → sub-GCL units currently held.
	outstanding map[string]int64
	crashed     bool
}

// Server is the SL-Remote instance. It is safe for concurrent use.
type Server struct {
	cfg     Config
	service *attest.Service

	mu       sync.Mutex
	licenses map[string]*License
	clients  map[string]*clientState
	// holders indexes, per license ID, the clients with a positive
	// outstanding balance — Algorithm 1's concurrency set — in sorted-SLID
	// order. Renewals copy this order instead of walking every registered
	// client or re-sorting the holders, which keeps a grant O(holders of one
	// license); the order changes only when a holder joins or leaves.
	holders  map[string][]*clientState // guardedby: mu
	nextSLID int
	persist  *persister // nil: in-memory only (see persist.go)
	audit    *audit.Log // nil: no audit trail (see AttachAudit)

	stats   ServerStats
	metrics atomic.Pointer[serverMetrics]
	flight  atomic.Pointer[flight.Recorder]

	// renews coalesces concurrent RenewLease calls into group-committed
	// batches; it has its own mutex, taken strictly before (never inside)
	// mu.
	renews renewBatcher
}

// SetFlightRecorder wires the black-box flight recorder; the server emits
// denials and WAL compactions into it. A nil recorder (the default) is
// free.
func (s *Server) SetFlightRecorder(rec *flight.Recorder) {
	s.flight.Store(rec)
}

// AttachAudit connects the tamper-evident lease-lifecycle audit log: from
// here on every issue, renewal (with its Algorithm-1 inputs), denial,
// revocation, escrow, and crash forfeit is appended to it. Call it AFTER
// RecoverServer — WAL replay re-runs historical mutations through the same
// apply helpers, and those must not re-append records the audit chain
// already holds. Appends are best-effort: a failing audit log (counted in
// audit_append_failures_total) never blocks lease operations.
func (s *Server) AttachAudit(log *audit.Log) {
	s.mu.Lock()
	s.audit = log
	s.mu.Unlock()
}

// auditLocked appends audit records as one durable batch, best-effort
// (nil-safe).
func (s *Server) auditLocked(recs ...audit.Record) {
	_ = s.audit.AppendBatch(recs)
}

// ServerStats counts server-side events.
type ServerStats struct {
	RemoteAttestations int64
	Renewals           int64
	RenewalsDenied     int64
	CrashForfeits      int64
}

// NewServer builds an SL-Remote with the given attestation service. A nil
// service disables quote verification (useful in unit tests of the policy
// alone); production paths always pass one.
func NewServer(cfg Config, service *attest.Service) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		service:  service,
		licenses: make(map[string]*License),
		clients:  make(map[string]*clientState),
		holders:  make(map[string][]*clientState),
	}, nil
}

// RegisterLicense adds a license with a total budget of totalGCL units.
// τ is derived from the config's TauFraction.
func (s *Server) RegisterLicense(id string, kind lease.Kind, totalGCL int64) error {
	if totalGCL <= 0 {
		return fmt.Errorf("slremote: license %q total GCL must be positive, got %d", id, totalGCL)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.licenses[id]; dup {
		return fmt.Errorf("slremote: license %q already registered", id)
	}
	if err := s.logLocked(event{Op: opRegister, License: id, Kind: uint8(kind), TotalGCL: totalGCL}); err != nil {
		return err
	}
	s.applyRegisterLocked(id, kind, totalGCL)
	s.auditLocked(audit.Record{Op: audit.OpIssue, License: id, Units: totalGCL})
	s.maybeSnapshotLocked()
	return nil
}

// applyRegisterLocked installs a license; shared by RegisterLicense and WAL
// replay.
func (s *Server) applyRegisterLocked(id string, kind lease.Kind, totalGCL int64) {
	lic := &License{
		ID:        id,
		Kind:      kind,
		TotalGCL:  totalGCL,
		Remaining: totalGCL,
		Tau:       s.cfg.TauFraction * float64(totalGCL),
	}
	if kind == lease.TimeBased || kind == lease.ExecTimeBased {
		lic.Interval = 24 * time.Hour
	}
	s.licenses[id] = lic
}

// SetLicenseInterval overrides the discretization step of a time-based or
// execution-time-based license.
func (s *Server) SetLicenseInterval(id string, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("slremote: non-positive interval %v", interval)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lic, ok := s.licenses[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLicense, id)
	}
	if err := s.logLocked(event{Op: opInterval, License: id, IntervalNS: int64(interval)}); err != nil {
		return err
	}
	lic.Interval = interval
	s.maybeSnapshotLocked()
	return nil
}

// License returns a copy of the license record.
func (s *Server) License(id string) (License, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lic, ok := s.licenses[id]
	if !ok {
		return License{}, fmt.Errorf("%w: %q", ErrUnknownLicense, id)
	}
	return *lic, nil
}

// Revoke kills a license: future renewals fail, and the paper's semantics
// (Section 4.3) set the counter to zero — SL-Local learns at its next
// contact.
func (s *Server) Revoke(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lic, ok := s.licenses[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLicense, id)
	}
	if err := s.logLocked(event{Op: opRevoke, License: id}); err != nil {
		return err
	}
	s.applyRevokeLocked(lic)
	s.auditLocked(audit.Record{Op: audit.OpRevoke, License: id})
	s.maybeSnapshotLocked()
	return nil
}

func (s *Server) applyRevokeLocked(lic *License) {
	lic.Revoked = true
	if m := s.metrics.Load(); m != nil {
		m.revocations.Inc()
	}
}

// InitResult is what a successfully initialized SL-Local receives.
type InitResult struct {
	// SLID is the client's stable identifier (new or confirmed).
	SLID string
	// OBK is the escrowed root key from the previous graceful shutdown;
	// zero when HasOBK is false (first boot or post-crash).
	OBK    seccrypto.Key
	HasOBK bool
}

// InitClient performs the init() handshake of Section 5.2.4: verify the
// client's remote-attestation quote (charging the multi-second RA latency
// to the client's machine), assign or confirm its SLID, and release any
// escrowed root key. An empty slid requests a fresh identity.
func (s *Server) InitClient(slid string, quote attest.Quote, clientMachine *sgx.Machine) (InitResult, error) {
	if s.service != nil {
		if err := s.service.VerifyQuote(quote, clientMachine); err != nil {
			return InitResult{}, fmt.Errorf("%w: %v", ErrAttestationFailed, err)
		}
	} else if clientMachine != nil {
		clientMachine.ChargeRemoteAttestation()
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	next := s.nextSLID
	if slid == "" {
		next++
		slid = "slid-" + strconv.Itoa(next)
	}
	if err := s.logLocked(event{Op: opInit, SLID: slid, NextSLID: next}); err != nil {
		return InitResult{}, err
	}
	res := s.applyInitLocked(slid, next)
	s.auditLocked(audit.Record{Op: audit.OpInit, SLID: slid})
	s.maybeSnapshotLocked()
	return res, nil
}

// applyInitLocked is the state-transition half of init(): SLID bookkeeping,
// the pessimistic crash/forfeit rules of Section 5.7, and single-use escrow
// release. It is deterministic given the current state, which is what makes
// WAL replay rebuild an identical server.
func (s *Server) applyInitLocked(slid string, nextSLID int) InitResult {
	s.stats.RemoteAttestations++
	s.nextSLID = nextSLID
	c, ok := s.clients[slid]
	if !ok {
		c = &clientState{
			slid:        slid,
			health:      1,
			reliability: 1,
			weight:      1,
			outstanding: make(map[string]int64),
		}
		s.clients[slid] = c
	}
	res := InitResult{SLID: slid}
	if c.crashed {
		// Pessimistic policy: the crash already forfeited the leases and
		// invalidated any stored state; the client starts fresh.
		c.crashed = false
		c.hasEscrow = false
	} else if !c.hasEscrow {
		// A client that returns holding leases but without a graceful
		// shutdown on record must have crashed (or be replaying): forfeit
		// everything it held (Section 5.7).
		for licID, held := range c.outstanding {
			if held == 0 {
				continue
			}
			if lic, ok := s.licenses[licID]; ok {
				lic.Lost += held
				if m := s.metrics.Load(); m != nil {
					m.licenseLost.With(licID).Set(float64(lic.Lost))
				}
			}
			delete(c.outstanding, licID)
			s.clearHolderLocked(licID, c)
			s.stats.CrashForfeits++
			s.auditLocked(audit.Record{Op: audit.OpCrashForfeit, SLID: c.slid, License: licID, Units: held})
		}
	}
	if c.hasEscrow {
		res.OBK = c.escrow
		res.HasOBK = true
		c.hasEscrow = false // single use; a fresh key arrives at next shutdown
	}
	return res
}

// SetClientProfile updates SL-Remote's view of a client's health h,
// network reliability n, and demand weight α. Values are clamped to their
// domains; reliability is floored at a small epsilon to avoid division by
// zero in the network-compensation term.
func (s *Server) SetClientProfile(slid string, health, reliability, weight float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	if err := s.logLocked(event{Op: opProfile, SLID: slid, Health: health, Reliability: reliability, Weight: weight}); err != nil {
		return err
	}
	applyProfile(c, health, reliability, weight)
	if m := s.metrics.Load(); m != nil {
		m.alg1Health.With(slid).Set(c.health)
		m.alg1Reliability.With(slid).Set(c.reliability)
	}
	s.maybeSnapshotLocked()
	return nil
}

// applyProfile clamps and installs Algorithm 1's per-client inputs.
func applyProfile(c *clientState, health, reliability, weight float64) {
	c.health = clamp01(health)
	c.reliability = math.Max(clamp01(reliability), 1e-3)
	if weight < 0 {
		weight = 0
	}
	c.weight = weight
}

// EscrowRootKey stores the client's lease-tree root key at graceful
// shutdown (Section 5.6).
func (s *Server) EscrowRootKey(slid string, key seccrypto.Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	if s.persist != nil {
		// The root key is the one secret SL-Remote holds for a client;
		// it is sealed before the WAL record leaves the (simulated)
		// enclave, so plaintext key material never reaches disk.
		sealed, err := seccrypto.ProtectWithKey(key.Bytes(), s.persist.sealKey, nil)
		if err != nil {
			return fmt.Errorf("slremote: sealing escrowed key: %w", err)
		}
		if err := s.logLocked(event{Op: opEscrow, SLID: slid, SealedKey: sealed}); err != nil {
			return err
		}
	}
	s.applyEscrowLocked(c, key)
	s.auditLocked(audit.Record{Op: audit.OpEscrow, SLID: slid})
	s.maybeSnapshotLocked()
	return nil
}

func (s *Server) applyEscrowLocked(c *clientState, key seccrypto.Key) {
	c.escrow = key
	c.hasEscrow = true
	if m := s.metrics.Load(); m != nil {
		m.escrows.Inc()
	}
}

// ReportCrash applies the pessimistic crash policy (Section 5.7): every
// GCL unit the client held is deemed consumed, and any escrowed state is
// invalidated. The forfeited units are recorded against each license's
// Lost counter — the quantity τ bounds in expectation.
func (s *Server) ReportCrash(slid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	if err := s.logLocked(event{Op: opCrash, SLID: slid}); err != nil {
		return err
	}
	s.applyCrashLocked(c)
	s.maybeSnapshotLocked()
	return nil
}

func (s *Server) applyCrashLocked(c *clientState) {
	for licID, held := range c.outstanding {
		if lic, ok := s.licenses[licID]; ok {
			lic.Lost += held
			if m := s.metrics.Load(); m != nil {
				m.licenseLost.With(licID).Set(float64(lic.Lost))
			}
		}
		delete(c.outstanding, licID)
		s.clearHolderLocked(licID, c)
		s.stats.CrashForfeits++
		s.auditLocked(audit.Record{Op: audit.OpCrashForfeit, SLID: c.slid, License: licID, Units: held})
	}
	c.crashed = true
	c.hasEscrow = false
}

// Grant is a renewal result: the sub-GCL handed to the client.
type Grant struct {
	License string
	// Units is g_i, the number of GCL units granted.
	Units int64
	// GCL is a ready-to-install lease counter for SL-Local.
	GCL lease.GCL
}

// renewCall is one waiter in the renewal batcher: a request parked until
// the batch that carries it commits (or is denied), or until it is handed
// the leadership.
type renewCall struct {
	slid    string
	license string
	grant   Grant
	err     error
	// wake receives once: when the call's result is ready, or when the
	// call must lead the next batch (lead is then set). It has room for
	// one signal so a sender never blocks; a leader's own batch result
	// lands in it unread.
	wake chan struct{}
	lead bool
}

// renewBatcher coalesces concurrent RenewLease calls into group commits.
// The first caller to find no leader becomes the leader: it drains the
// pending queue, processes the whole batch under ONE hold of Server.mu
// with ONE write-ahead-log append and ONE audit append (one fsync each),
// fans the per-caller results back out, and then hands the leadership to
// the oldest waiter instead of draining again — so no caller leads for
// longer than its own batch, and every call returns within two batches of
// being enqueued. Callers that arrive while a leader is active just park.
//
// Lock order: renewBatcher.mu is released before Server.mu is taken and
// is never acquired while holding it.
type renewBatcher struct {
	mu      sync.Mutex
	pending []*renewCall // guardedby: mu — calls waiting for the next batch
	leading bool         // guardedby: mu — a leader is draining the queue
}

// RenewLease runs Algorithm 1 for the named client and license and, on
// success, transfers g_i units from the license pool to the client.
//
// The concurrency C and the weight normalization Σα = 1 are computed over
// the clients currently holding or requesting this license.
//
// Concurrent calls coalesce: one caller leads, folding every pending
// renewal into a single pass under the state lock with a single WAL
// append and a single audit append, so N pipelined renewals cost two
// fsyncs instead of 2N.
func (s *Server) RenewLease(slid, licenseID string) (Grant, error) {
	call := &renewCall{slid: slid, license: licenseID, wake: make(chan struct{}, 1)}
	s.renews.mu.Lock()
	s.renews.pending = append(s.renews.pending, call)
	if s.renews.leading {
		s.renews.mu.Unlock()
		<-call.wake
		if !call.lead {
			return call.grant, call.err
		}
		s.renews.mu.Lock()
	}
	s.renews.leading = true
	batch := s.renews.pending // holds this call
	s.renews.pending = nil
	s.renews.mu.Unlock()
	s.renewBatch(batch)
	s.renews.mu.Lock()
	if len(s.renews.pending) == 0 {
		s.renews.leading = false
	} else {
		next := s.renews.pending[0]
		next.lead = true
		next.wake <- struct{}{}
	}
	s.renews.mu.Unlock()
	return call.grant, call.err
}

// renewBatch processes one drained batch under Server.mu and releases
// every caller once the batch's WAL record and audit records are durable.
func (s *Server) renewBatch(batch []*renewCall) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.auditLocked(s.renewBatchLocked(batch)...)
	for _, call := range batch {
		call.wake <- struct{}{}
	}
}

// renewBatchLocked computes every call's Algorithm-1 grant against the
// batch-start state (with a per-license running pool balance so the batch
// can never over-grant), makes the surviving grants durable with one WAL
// append, and only then applies them. Denials are never logged — a denial
// mutates nothing. It returns the batch's audit records, denials first,
// for the caller to append as one batch.
func (s *Server) renewBatchLocked(batch []*renewCall) []audit.Record {
	var recs []audit.Record

	type grantPlan struct {
		call  *renewCall
		c     *clientState
		lic   *License
		units int64
		st    alg1State
	}
	plans := make([]grantPlan, 0, len(batch))
	// remaining simulates each license's pool across the batch: grants
	// planned earlier in the batch shrink what later ones may take, even
	// though nothing is applied until the WAL append succeeds.
	remaining := make(map[*License]int64)

	// Resolve every call first and collect, per license, the distinct
	// requesters in this batch: Algorithm 1 prices each grant against the
	// license's holders plus ALL of its batch co-requesters, so a
	// thundering herd renewing one license divides the pool the same way
	// sequential arrival would, instead of each request pricing itself as
	// the only newcomer.
	type resolved struct {
		c   *clientState
		lic *License
	}
	rcs := make([]resolved, len(batch))
	coByLic := make(map[string][]*clientState)
	coSeen := make(map[string]map[string]bool)
	// orders caches each license's concurrency order for this batch; set
	// is the one grant's concurrency set, rebuilt in place per grant.
	orders := make(map[string][]*clientState)
	var set []*clientState
	for i, call := range batch {
		c, ok := s.clients[call.slid]
		if !ok {
			call.err = fmt.Errorf("%w: %q", ErrUnknownClient, call.slid)
			continue
		}
		lic, ok := s.licenses[call.license]
		if !ok {
			call.err = fmt.Errorf("%w: %q", ErrUnknownLicense, call.license)
			continue
		}
		rcs[i] = resolved{c: c, lic: lic}
		if coSeen[lic.ID] == nil {
			coSeen[lic.ID] = make(map[string]bool)
		}
		if !coSeen[lic.ID][c.slid] {
			coSeen[lic.ID][c.slid] = true
			coByLic[lic.ID] = append(coByLic[lic.ID], c)
		}
	}

	for i, call := range batch {
		c, lic := rcs[i].c, rcs[i].lic
		if c == nil || lic == nil {
			continue // unresolved above
		}
		deny := func(err error) {
			s.stats.RenewalsDenied++
			recs = append(recs, audit.Record{Op: audit.OpDeny, SLID: call.slid, License: call.license, Err: err.Error()})
			s.flight.Load().Emit("slremote.denial",
				flight.KV{K: "slid", V: call.slid},
				flight.KV{K: "license", V: call.license},
				flight.KV{K: "err", V: err.Error()})
			call.err = err
		}
		rem, seen := remaining[lic]
		if !seen {
			rem = lic.Remaining
		}
		if lic.Revoked {
			deny(fmt.Errorf("%w: %q", ErrLicenseRevoked, call.license))
			continue
		}
		if rem <= 0 {
			deny(fmt.Errorf("%w: %q", ErrLicenseExhausted, call.license))
			continue
		}

		var units int64
		var st alg1State
		if lic.Kind == lease.Perpetual {
			// A perpetual license is a seat, not a consumable budget:
			// activation transfers one whole unit, never a sub-division.
			units = 1
			st = alg1State{alpha: 1, gMax: 1, health: c.health, reliability: c.reliability}
		} else {
			order, ok := orders[lic.ID]
			if !ok {
				order = s.batchOrderLocked(lic.ID, coByLic[lic.ID])
				orders[lic.ID] = order
			}
			var weightSum float64
			set, weightSum = concurrencySet(set[:0], c, order)
			units, st = s.computeGrantWithLocked(c, lic, set, weightSum)
			if units <= 0 && rem > 0 {
				// Algorithm 1's scale-downs can floor small pools to zero;
				// a live license always yields at least one unit so small
				// (e.g. 3-interval trial) licenses remain usable.
				units = 1
			}
		}
		if units <= 0 {
			deny(fmt.Errorf("%w: %q (policy granted zero units)", ErrLicenseExhausted, call.license))
			continue
		}
		if units > rem {
			units = rem
		}
		remaining[lic] = rem - units
		plans = append(plans, grantPlan{call: call, c: c, lic: lic, units: units, st: st})
	}

	if len(plans) == 0 {
		return recs
	}

	// The WAL records the Algorithm 1 *outcomes* (the granted units), not
	// the requests, so replay applies the exact historical transfers
	// instead of re-running the policy against a drifting view. A
	// singleton batch logs the classic opRenew record, byte-identical to
	// the pre-coalescing WAL.
	var ev event
	if len(plans) == 1 {
		ev = event{Op: opRenew, SLID: plans[0].call.slid, License: plans[0].call.license, Units: plans[0].units}
	} else {
		entries := make([]batchGrant, len(plans))
		for i, p := range plans {
			entries[i] = batchGrant{SLID: p.call.slid, License: p.call.license, Units: p.units}
		}
		ev = event{Op: opRenewBatch, Batch: entries}
	}
	if err := s.logLocked(ev); err != nil {
		for i := range plans {
			plans[i].call.err = err
		}
		return recs
	}

	for _, p := range plans {
		s.applyRenewLocked(p.c, p.lic, p.units)

		// Effective scale-down: the ratio the policy actually applied
		// between the client's proportional ceiling G_i and the granted
		// g_i. It starts at the configured D and grows as
		// health/reliability/expected-loss corrections bite.
		scale := s.cfg.D
		if p.units > 0 && p.st.gMax > 0 {
			scale = p.st.gMax / float64(p.units)
		}
		if m := s.metrics.Load(); m != nil {
			m.alg1Alpha.With(p.call.slid).Set(p.st.alpha)
			m.alg1ScaleDown.With(p.call.slid).Set(scale)
			m.alg1Health.With(p.call.slid).Set(p.st.health)
			m.alg1Reliability.With(p.call.slid).Set(p.st.reliability)
		}
		recs = append(recs, audit.Record{
			Op: audit.OpRenew, SLID: p.call.slid, License: p.call.license, Units: p.units,
			Alg1: &audit.Alg1{
				Alpha:        p.st.alpha,
				ScaleDown:    scale,
				Health:       p.st.health,
				Reliability:  p.st.reliability,
				ExpectedLoss: p.st.expLoss,
			},
		})
		p.call.grant = Grant{
			License: p.call.license,
			Units:   p.units,
			GCL:     lease.GCL{Kind: p.lic.Kind, Counter: p.units, Interval: p.lic.Interval},
		}
	}
	s.maybeSnapshotLocked()
	return recs
}

// applyRenewLocked transfers units from the license pool to the client.
func (s *Server) applyRenewLocked(c *clientState, lic *License, units int64) {
	lic.Remaining -= units
	c.outstanding[lic.ID] += units
	if c.outstanding[lic.ID] > 0 {
		s.setHolderLocked(lic.ID, c)
	}
	s.stats.Renewals++
	if m := s.metrics.Load(); m != nil {
		m.grantUnits.Observe(float64(units))
		m.licenseRemaining.With(lic.ID).Set(float64(lic.Remaining))
	}
}

// alg1State captures the Algorithm-1 inputs and intermediates behind one
// renewal decision, feeding the audit log's renew records and the
// slremote_alg1_* gauges.
type alg1State struct {
	alpha       float64 // α_i, normalized concurrency share
	gMax        float64 // G_i, the proportional ceiling (line 3)
	health      float64 // h_i as used
	reliability float64 // n_i as used
	expLoss     float64 // Equation 1 after the final scale-down
}

// computeGrantWithLocked is Algorithm 1 (RenewLease) from the paper,
// against an explicit concurrency set: holders must include c, and
// weightSum must span exactly holders (see concurrencySet).
func (s *Server) computeGrantWithLocked(c *clientState, lic *License, holders []*clientState, weightSum float64) (int64, alg1State) {
	concurrency := float64(len(holders))
	alpha := c.weight / weightSum // α_i with Σα_i = 1

	tg := float64(lic.TotalGCL)
	gMax := alpha * tg / concurrency // G_i  (line 3)
	g := gMax / s.cfg.D              // default policy (line 4)
	g *= c.health                    // crash penalty (line 5)
	if c.health > s.cfg.HealthThreshold {
		// Network benefit for healthy clients on flaky links (line 7).
		g = math.Min(gMax, g*(1/c.reliability))
	}

	beta := s.cfg.Beta // FetchBeta() (line 9)
	expLoss := s.expectedLossLocked(lic.ID, holders, c, g)
	if expLoss > lic.Tau {
		// Scale down until the expected loss is bounded (lines 10-14).
		for iter := 0; iter < 64 && expLoss > lic.Tau && g >= 1; iter++ {
			beta *= (expLoss - lic.Tau) / expLoss
			g = beta * g
			expLoss = s.expectedLossLocked(lic.ID, holders, c, g)
		}
	} else {
		// Line 16 ("scaling up"): β = (τ − ExpLoss)/τ, g = β·g. As written
		// in the paper this damps the grant in proportion to how much loss
		// headroom has been consumed; with zero expected loss it leaves g
		// unchanged.
		beta = (lic.Tau - expLoss) / lic.Tau
		g = beta * g
	}
	if g < 0 {
		g = 0
	}
	if m := s.metrics.Load(); m != nil {
		m.expectedLoss.With(lic.ID).Set(expLoss)
	}
	return int64(math.Floor(g)), alg1State{
		alpha:       alpha,
		gMax:        gMax,
		health:      c.health,
		reliability: c.reliability,
		expLoss:     expLoss,
	}
}

// batchOrderLocked is one batch's concurrency order for a license: the
// cached holder order with the batch's co-requesters that do not hold the
// license yet merged in, still in sorted-SLID order. The batch prices every
// grant as if all its requesters already held the license, which is the
// state sequential arrival converges to. Without newcomers it returns the
// cached order itself, which stays valid until the next holder change.
func (s *Server) batchOrderLocked(licenseID string, co []*clientState) []*clientState {
	held := s.holders[licenseID]
	var fresh []*clientState
	for _, c := range co {
		if _, in := holderPos(held, c.slid); !in {
			fresh = append(fresh, c)
		}
	}
	if len(fresh) == 0 {
		return held
	}
	slices.SortFunc(fresh, func(a, b *clientState) int { return strings.Compare(a.slid, b.slid) })
	order := make([]*clientState, 0, len(held)+len(fresh))
	for _, h := range held {
		for len(fresh) > 0 && fresh[0].slid < h.slid {
			order = append(order, fresh[0])
			fresh = fresh[1:]
		}
		order = append(order, h)
	}
	return append(order, fresh...)
}

// concurrencySet builds one grant's concurrency set into dst: the
// requester first, then every other live client of order in order, with
// their total weight summed in that same order. The fixed order keeps the
// floating-point sums (weight normalization, Equation 1) reproducible —
// seeded harness runs depend on that, and map order would break it.
func concurrencySet(dst []*clientState, requester *clientState, order []*clientState) ([]*clientState, float64) {
	dst = append(dst, requester)
	weightSum := requester.weight
	for _, h := range order {
		if h == requester || h.crashed {
			continue
		}
		dst = append(dst, h)
		weightSum += h.weight
	}
	if weightSum <= 0 {
		weightSum = 1
	}
	return dst, weightSum
}

// holderPos finds slid in a sorted holder order: its index, or the index
// it would be inserted at.
func holderPos(order []*clientState, slid string) (int, bool) {
	return slices.BinarySearchFunc(order, slid, func(h *clientState, slid string) int {
		return strings.Compare(h.slid, slid)
	})
}

// setHolderLocked and clearHolderLocked maintain the per-license holder
// order; every mutation of a client's outstanding balance goes through one
// of them, and only a joining or leaving holder changes the order.
func (s *Server) setHolderLocked(licenseID string, c *clientState) {
	order := s.holders[licenseID]
	if i, in := holderPos(order, c.slid); !in {
		s.holders[licenseID] = slices.Insert(order, i, c)
	}
}

func (s *Server) clearHolderLocked(licenseID string, c *clientState) {
	order := s.holders[licenseID]
	i, in := holderPos(order, c.slid)
	switch {
	case !in:
	case len(order) == 1:
		delete(s.holders, licenseID)
	default:
		s.holders[licenseID] = slices.Delete(order, i, i+1)
	}
}

// expectedLossLocked computes Equation 1: ExpLoss(L) = Σ g_i (1 − h_i),
// over current holders, with the requester's holding augmented by the
// candidate grant g.
func (s *Server) expectedLossLocked(licenseID string, holders []*clientState, requester *clientState, g float64) float64 {
	var loss float64
	for _, h := range holders {
		held := float64(h.outstanding[licenseID])
		if h == requester {
			held += g
		}
		loss += held * (1 - h.health)
	}
	return loss
}

// ConsumeReport lets a client report consumption of previously granted
// units (so the server's outstanding view tracks reality and expected-loss
// computations stay honest).
func (s *Server) ConsumeReport(slid, licenseID string, units int64) error {
	if units < 0 {
		return fmt.Errorf("slremote: negative consumption %d", units)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	held := c.outstanding[licenseID]
	if units > held {
		units = held
	}
	if err := s.logLocked(event{Op: opConsume, SLID: slid, License: licenseID, Units: units}); err != nil {
		return err
	}
	s.applyConsumeLocked(c, licenseID, units)
	s.maybeSnapshotLocked()
	return nil
}

// applyConsumeLocked moves units from the client's outstanding balance to
// the license's consumed ledger; shared by ConsumeReport and WAL replay.
// Without the Consumed counter the units would simply vanish, and no
// global invariant over the license pool could ever balance.
func (s *Server) applyConsumeLocked(c *clientState, licenseID string, units int64) {
	c.outstanding[licenseID] -= units
	if c.outstanding[licenseID] <= 0 {
		s.clearHolderLocked(licenseID, c)
	}
	if lic, ok := s.licenses[licenseID]; ok {
		lic.Consumed += units
		if m := s.metrics.Load(); m != nil {
			m.licenseConsumed.With(licenseID).Set(float64(lic.Consumed))
		}
	}
}

// Outstanding returns the units of the license currently held by a client.
func (s *Server) Outstanding(slid, licenseID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return 0
	}
	return c.outstanding[licenseID]
}

// Stats returns a copy of the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
