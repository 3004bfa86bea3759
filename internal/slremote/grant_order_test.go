package slremote

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/lease"
	"repro/internal/seccrypto"
)

// priceOneLocked prices a lone renewal: Algorithm 1 for a batch of one.
func priceOneLocked(s *Server, c *clientState, lic *License) (int64, alg1State) {
	set, weightSum := concurrencySet(nil, c, s.batchOrderLocked(lic.ID, []*clientState{c}))
	return s.computeGrantWithLocked(c, lic, set, weightSum)
}

// holdersBatchOracle is how the server built a grant's concurrency set
// before it cached the holder order: a fresh map of the license's holders
// and the batch's co-requesters, sorted per grant. It reads the holders
// from the outstanding balances rather than from the index, so matching
// it also checks the index.
func holdersBatchOracle(s *Server, licenseID string, requester *clientState, co []*clientState) ([]*clientState, float64) {
	members := make(map[string]*clientState)
	for slid, other := range s.clients {
		if other.outstanding[licenseID] <= 0 || other == requester || other.crashed {
			continue
		}
		members[slid] = other
	}
	for _, r := range co {
		if r == requester || r.crashed {
			continue
		}
		members[r.slid] = r
	}
	slids := make([]string, 0, len(members))
	for slid := range members {
		slids = append(slids, slid)
	}
	sort.Strings(slids)
	holders := make([]*clientState, 0, len(slids)+1)
	holders = append(holders, requester)
	weightSum := requester.weight
	for _, slid := range slids {
		holders = append(holders, members[slid])
		weightSum += members[slid].weight
	}
	if weightSum <= 0 {
		weightSum = 1
	}
	return holders, weightSum
}

type renewReq struct{ slid, license string }

type nopLogger struct{}

func (nopLogger) Append([]byte) error { return nil }

// sameBits reports whether two float64s are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkBatchPricing prices every request of a batch against the
// batch-start state twice — through the cached order and through the
// oracle — and demands bit-identical sets, weights, units and Algorithm-1
// state. It returns the oracle's pricing per request (nil entries for
// requests that are not priced) for checking the batch's real outcome.
func checkBatchPricing(t *testing.T, s *Server, reqs []renewReq) []*pricing {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	coByLic := make(map[string][]*clientState)
	seen := make(map[string]bool)
	for _, r := range reqs {
		c, lic := s.clients[r.slid], s.licenses[r.license]
		if c == nil || lic == nil || seen[r.license+"/"+r.slid] {
			continue
		}
		seen[r.license+"/"+r.slid] = true
		coByLic[r.license] = append(coByLic[r.license], c)
	}
	out := make([]*pricing, len(reqs))
	for i, r := range reqs {
		c, lic := s.clients[r.slid], s.licenses[r.license]
		if c == nil || lic == nil || lic.Kind == lease.Perpetual {
			continue
		}
		wantSet, wantW := holdersBatchOracle(s, lic.ID, c, coByLic[lic.ID])
		wantUnits, wantSt := s.computeGrantWithLocked(c, lic, wantSet, wantW)
		gotSet, gotW := concurrencySet(nil, c, s.batchOrderLocked(lic.ID, coByLic[lic.ID]))
		gotUnits, gotSt := s.computeGrantWithLocked(c, lic, gotSet, gotW)
		if !reflect.DeepEqual(gotSet, wantSet) {
			t.Fatalf("request %d (%s on %s): concurrency set %v, oracle %v", i, r.slid, r.license, slidsOf(gotSet), slidsOf(wantSet))
		}
		if !sameBits(gotW, wantW) || gotUnits != wantUnits ||
			!sameBits(gotSt.alpha, wantSt.alpha) || !sameBits(gotSt.gMax, wantSt.gMax) ||
			!sameBits(gotSt.health, wantSt.health) || !sameBits(gotSt.reliability, wantSt.reliability) ||
			!sameBits(gotSt.expLoss, wantSt.expLoss) {
			t.Fatalf("request %d (%s on %s): priced %d %+v (weight %v), oracle %d %+v (weight %v)",
				i, r.slid, r.license, gotUnits, gotSt, gotW, wantUnits, wantSt, wantW)
		}
		out[i] = &pricing{units: wantUnits, st: wantSt}
	}
	return out
}

type pricing struct {
	units int64
	st    alg1State
}

func slidsOf(cs []*clientState) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.slid
	}
	return out
}

// runBatch drives reqs through renewBatch as one coalesced batch, the way
// a batch leader does, and returns each call.
func runBatch(s *Server, reqs []renewReq) []*renewCall {
	calls := make([]*renewCall, len(reqs))
	for i, r := range reqs {
		calls[i] = &renewCall{slid: r.slid, license: r.license, wake: make(chan struct{}, 1)}
	}
	s.renewBatch(calls)
	return calls
}

// checkIndexLocked asserts the cached holder order: per license, exactly
// the clients with a positive balance, sorted by SLID.
func checkIndexLocked(t *testing.T, s *Server) {
	t.Helper()
	want := make(map[string][]string)
	for slid, c := range s.clients {
		for lic, held := range c.outstanding {
			if held > 0 {
				want[lic] = append(want[lic], slid)
			}
		}
	}
	for lic := range want {
		sort.Strings(want[lic])
	}
	got := make(map[string][]string)
	for lic, order := range s.holders {
		got[lic] = slidsOf(order)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("holder index %v, want %v", got, want)
	}
}

// sealedImage seals the server's full state the way SnapshotNow does.
func sealedImage(t *testing.T, s *Server, key seccrypto.Key) []byte {
	t.Helper()
	s.mu.Lock()
	plain, err := json.Marshal(s.imageLocked())
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := seccrypto.ProtectWithKey(plain, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestCachedHolderOrderMatchesOracle prices a seeded corpus of coalesced
// batches through the cached holder order and through the per-grant
// map-and-sort it replaced, and demands bit-identical grants. The corpus
// covers several licenses, crashed holders (which may still renew),
// first-time requesters inside a batch, one SLID twice in a batch, holders
// leaving between batches (consumed to zero, crashed, re-initialised), and
// a replica Rebase halfway through. Every batch's real grants and audit
// records must equal the oracle's pricing too.
func TestCachedHolderOrderMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			key := testSealKey(t)
			s := newServer(t)
			log, err := audit.Open("", seccrypto.Key{})
			if err != nil {
				t.Fatal(err)
			}
			s.AttachAudit(log)
			licenses := []string{"big", "mid", "small", "seat"}
			for i, total := range []int64{4_000_000, 300_000, 20_000} {
				if err := s.RegisterLicense(licenses[i], lease.CountBased, total); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RegisterLicense("seat", lease.Perpetual, 1_000); err != nil {
				t.Fatal(err)
			}
			var slids []string
			newClient := func() string {
				slid := initClient(t, s)
				slids = append(slids, slid)
				health := []float64{1, 0.97, 0.9, 0.6, 0.3}[rng.Intn(5)]
				if err := s.SetClientProfile(slid, health, 0.5+rng.Float64()/2, 0.25+2*rng.Float64()); err != nil {
					t.Fatal(err)
				}
				return slid
			}
			for i := 0; i < 20; i++ {
				newClient()
			}
			pick := func() string { return slids[rng.Intn(len(slids))] }

			for round := 0; round < 80; round++ {
				// Membership churn between batches.
				switch rng.Intn(6) {
				case 0: // a holder consumes its whole balance and leaves
					slid, lic := pick(), licenses[rng.Intn(3)]
					if held := s.Outstanding(slid, lic); held > 0 {
						if err := s.ConsumeReport(slid, lic, held); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					if err := s.ReportCrash(pick()); err != nil {
						t.Fatal(err)
					}
				case 2: // re-init: forfeits a non-escrowed client's holdings
					if _, err := s.InitClient(pick(), attest.Quote{}, nil); err != nil {
						t.Fatal(err)
					}
				case 3:
					slid := pick()
					if err := s.SetClientProfile(slid, rng.Float64(), rng.Float64(), 2*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
				if round == 40 {
					// Rebase a replica onto the live state and carry on
					// against it: the index must rebuild from the image.
					r, err := NewReplica(DefaultConfig(), nil, key)
					if err != nil {
						t.Fatal(err)
					}
					if err := r.Rebase(sealedImage(t, s, key)); err != nil {
						t.Fatal(err)
					}
					if got, want := r.State(), s.ExportState(); !reflect.DeepEqual(got, want) {
						t.Fatal("rebased replica diverges from the leader")
					}
					if s, err = r.Promote(PersistConfig{Log: nopLogger{}, SealKey: key}); err != nil {
						t.Fatal(err)
					}
					s.AttachAudit(log)
				}

				n := 1 + rng.Intn(16)
				reqs := make([]renewReq, 0, n+2)
				for len(reqs) < n {
					reqs = append(reqs, renewReq{pick(), licenses[rng.Intn(len(licenses))]})
				}
				if rng.Intn(2) == 0 { // a first-time requester inside the batch
					reqs = append(reqs, renewReq{newClient(), licenses[rng.Intn(3)]})
				}
				if rng.Intn(2) == 0 { // one SLID twice in the batch
					reqs = append(reqs, reqs[rng.Intn(len(reqs))])
				}

				s.mu.Lock()
				checkIndexLocked(t, s)
				remaining := make(map[string]int64)
				for id, lic := range s.licenses {
					remaining[id] = lic.Remaining
				}
				s.mu.Unlock()
				want := checkBatchPricing(t, s, reqs)
				before := log.Len()
				calls := runBatch(s, reqs)

				var renews []audit.Record
				for _, rec := range log.Tail(int(log.Len() - before)) {
					if rec.Op == audit.OpRenew {
						renews = append(renews, rec)
					}
				}
				for i, call := range calls {
					p := want[i]
					if p == nil || call.err != nil {
						continue
					}
					units := p.units
					if units <= 0 {
						units = 1
					}
					units = min(units, remaining[call.license])
					remaining[call.license] -= units
					if call.grant.Units != units {
						t.Fatalf("round %d call %d: granted %d, oracle pricing gives %d", round, i, call.grant.Units, units)
					}
					var rec *audit.Record
					for j := range renews {
						if renews[j].SLID == call.slid && renews[j].License == call.license && renews[j].Units == units {
							r := renews[j]
							rec = &r
							renews = append(renews[:j], renews[j+1:]...)
							break
						}
					}
					if rec == nil || !sameBits(rec.Alg1.Alpha, p.st.alpha) || !sameBits(rec.Alg1.Health, p.st.health) ||
						!sameBits(rec.Alg1.Reliability, p.st.reliability) || !sameBits(rec.Alg1.ExpectedLoss, p.st.expLoss) {
						t.Fatalf("round %d call %d: audit record %+v does not carry the oracle's state %+v", round, i, rec, p.st)
					}
				}
			}
			s.mu.Lock()
			checkIndexLocked(t, s)
			s.mu.Unlock()
		})
	}
}

// gatedLogger is a WAL that holds every renewal record until the test
// ticks, so batches advance one at a time under the test's control.
type gatedLogger struct {
	gate    chan struct{}
	blocked atomic.Int64 // grants in the newest record to reach the gate
	arrived atomic.Int64 // renewal records that reached the gate
	open    atomic.Bool  // pass records through without waiting
}

func (l *gatedLogger) Append(rec []byte) error {
	if l.open.Load() {
		return nil
	}
	var ev event
	if err := json.Unmarshal(rec, &ev); err != nil {
		return err
	}
	n := len(ev.Batch)
	if ev.Op == opRenew {
		n = 1
	}
	if n == 0 {
		return nil
	}
	l.blocked.Store(int64(n))
	l.arrived.Add(1)
	<-l.gate
	return nil
}

// TestCoalescingLeaderHandsOff pins the renewal batcher's fairness: 8
// goroutines renew without pause through 200+ batches, and every
// RenewLease returns within 2 batches of being enqueued. A leader that
// kept draining until the queue ran dry would hold its own caller past
// that bound. The test is the clock: it releases one batch per tick, and
// only once every goroutine is parked — in the pending queue or in the
// batch at the gate — so each call's enqueue and return are read exactly.
func TestCoalescingLeaderHandsOff(t *testing.T) {
	const workers, batches = 8, 220
	s := newServer(t)
	wal := &gatedLogger{gate: make(chan struct{})}
	if err := s.AttachPersistence(PersistConfig{Log: wal, SealKey: testSealKey(t)}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLicense("seat", lease.Perpetual, 1<<40); err != nil {
		t.Fatal(err)
	}
	slids := make([]string, workers)
	for i := range slids {
		slids[i] = initClient(t, s)
	}

	var ticks atomic.Int64
	var stop atomic.Bool
	worst := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				enq := ticks.Load()
				if _, err := s.RenewLease(slids[w], "seat"); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				worst[w] = max(worst[w], ticks.Load()-enq)
			}
		}(w)
	}
	// parked counts the renewals in the pending queue plus those in the
	// batch at the gate, once the tick'th batch has reached it.
	parked := func(tick int) int64 {
		if wal.arrived.Load() != int64(tick)+1 {
			return -1
		}
		s.renews.mu.Lock()
		defer s.renews.mu.Unlock()
		return int64(len(s.renews.pending)) + wal.blocked.Load()
	}
	for tick := 0; tick < batches; tick++ {
		deadline := time.Now().Add(10 * time.Second)
		for parked(tick) != workers {
			if time.Now().After(deadline) {
				stop.Store(true)
				wal.open.Store(true)
				close(wal.gate)
				wg.Wait()
				t.Fatalf("tick %d: %d of %d renewals parked — a caller is stuck outside the queue (leading past its own batch?)",
					tick, parked(tick), workers)
			}
			time.Sleep(20 * time.Microsecond)
		}
		ticks.Add(1)
		wal.gate <- struct{}{}
	}
	stop.Store(true)
	wal.open.Store(true)
	close(wal.gate)
	wg.Wait()
	for w, d := range worst {
		if d > 2 {
			t.Errorf("worker %d: a renewal returned %d batches after it was enqueued, want ≤ 2", w, d)
		}
	}
}

// TestRenewBatchAuditContiguous pins the audit side of a coalesced batch:
// its records are appended as one contiguous run — denials first, then
// grants in batch order — with consecutive sequence numbers, and the
// chain on disk still verifies.
func TestRenewBatchAuditContiguous(t *testing.T) {
	s := newServer(t)
	log, err := audit.Open(t.TempDir()+"/audit.log", testSealKey(t))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s.AttachAudit(log)
	for _, id := range []string{"a", "b", "dead"} {
		if err := s.RegisterLicense(id, lease.CountBased, 100_000); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Revoke("dead"); err != nil {
		t.Fatal(err)
	}
	slids := make([]string, 5)
	for i := range slids {
		slids[i] = initClient(t, s)
	}
	reqs := []renewReq{
		{slids[0], "a"}, {slids[1], "dead"}, {slids[2], "b"},
		{slids[3], "a"}, {slids[4], "dead"}, {slids[0], "b"},
	}
	before := log.Len()
	runBatch(s, reqs)
	recs := log.Tail(0)
	recs = recs[len(recs)-int(log.Len()-before):]

	want := []struct{ op, slid, license string }{
		{audit.OpDeny, slids[1], "dead"}, {audit.OpDeny, slids[4], "dead"},
		{audit.OpRenew, slids[0], "a"}, {audit.OpRenew, slids[2], "b"},
		{audit.OpRenew, slids[3], "a"}, {audit.OpRenew, slids[0], "b"},
	}
	if len(recs) != len(want) {
		t.Fatalf("batch appended %d audit records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		r := recs[i]
		if r.Seq != before+uint64(i)+1 || r.Op != w.op || r.SLID != w.slid || r.License != w.license {
			t.Errorf("record %d = seq %d %s %s %s, want seq %d %s %s %s",
				i, r.Seq, r.Op, r.SLID, r.License, before+uint64(i)+1, w.op, w.slid, w.license)
		}
	}
	if err := log.Verify(); err != nil {
		t.Fatalf("chain after a batch: %v", err)
	}
}
