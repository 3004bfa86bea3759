package audit

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

func testKey(t testing.TB) seccrypto.Key {
	t.Helper()
	key, err := seccrypto.KeyFromBytes(bytes.Repeat([]byte{0xA7}, seccrypto.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// appendLifecycle writes the issue → renew → crash-forfeit arc the
// acceptance criteria name.
func appendLifecycle(t testing.TB, l *Log) {
	t.Helper()
	recs := []Record{
		{Op: OpIssue, License: "lic", Units: 1000},
		{Op: OpInit, SLID: "SL-1"},
		{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 250,
			Alg1: &Alg1{Alpha: 1, ScaleDown: 4, Health: 1, Reliability: 1, ExpectedLoss: 250}},
		{Op: OpCrashForfeit, SLID: "SL-1", License: "lic", Units: 250},
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append(%s): %v", rec.Op, err)
		}
	}
}

func TestAuditChainAppendAndVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendLifecycle(t, l)
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify on intact chain: %v", err)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	tail := l.Tail(2)
	if len(tail) != 2 || tail[0].Op != OpRenew || tail[1].Op != OpCrashForfeit {
		t.Fatalf("Tail(2) = %+v", tail)
	}
	if tail[0].Alg1 == nil || tail[0].Alg1.Alpha != 1 || tail[0].Alg1.ScaleDown != 4 {
		t.Fatalf("renew record lost its Algorithm-1 inputs: %+v", tail[0].Alg1)
	}
	head := l.HeadHash()
	if head == ([32]byte{}) {
		t.Fatal("head hash still zero after appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the chain continues from the persisted head.
	l2, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 4 || l2.HeadHash() != head {
		t.Fatalf("reopen: len %d head %x, want 4 / %x", l2.Len(), l2.HeadHash(), head)
	}
	if err := l2.Append(Record{Op: OpEscrow, SLID: "SL-1"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l2.Verify(); err != nil {
		t.Fatalf("Verify after reopen append: %v", err)
	}
	// Sequence numbers stay contiguous across the restart.
	all := l2.Tail(0)
	if len(all) != 5 {
		t.Fatalf("Tail(0) = %d records, want 5", len(all))
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
}

func TestAuditVerifyDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)

	// Flip one payload byte of the first sealed record while the log is
	// still open: the live Verify must fail loudly.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0x01 // first byte past the first frame header
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err == nil {
		t.Fatal("Verify accepted a flipped byte")
	}
	_ = l.Close()
	// And a fresh Open refuses the log outright.
	if _, err := Open(path, testKey(t)); err == nil {
		t.Fatal("Open accepted a flipped byte")
	}
}

func TestAuditVerifyDetectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpIssue, License: "lic", Units: 10}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := fi.Size() // frame boundary after record 1
	if err := l.Append(Record{Op: OpRevoke, License: "lic"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify before truncation: %v", err)
	}
	// Roll the file back to exactly one record: the file alone still walks
	// cleanly, so only the head comparison can catch it.
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if seq, _, err := VerifyFile(path, testKey(t)); err != nil || seq != 1 {
		t.Fatalf("VerifyFile on rolled-back file = seq %d, %v", seq, err)
	}
	err = l.Verify()
	if err == nil {
		t.Fatal("Verify accepted a rolled-back chain")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error = %v, want mention of truncation", err)
	}
	_ = l.Close()
}

func TestAuditVerifyDetectsReorder(t *testing.T) {
	key := testKey(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.log")
	l, err := Open(path, key)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := store.ReadAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the log with records 2 and 3 swapped: every sealed frame is
	// individually authentic, so only the chain walk can object.
	swapped := filepath.Join(dir, "swapped.log")
	out, _, err := store.OpenAppendFile(swapped)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{0, 2, 1, 3}
	for _, i := range order {
		if err := out.Append(sealed[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyFile(swapped, key); err == nil {
		t.Fatal("VerifyFile accepted reordered records")
	}
	if _, err := Open(swapped, key); err == nil {
		t.Fatal("Open accepted reordered records")
	}
}

func TestAuditWrongKeyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wrong, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyFile(path, wrong); err == nil ||
		!strings.Contains(err.Error(), "seal validation failed") {
		t.Fatalf("VerifyFile with wrong key = %v, want seal failure", err)
	}
}

func TestAuditMemoryOnly(t *testing.T) {
	l, err := Open("", seccrypto.Key{})
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("memory-only Verify: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditNilLog(t *testing.T) {
	var l *Log
	if err := l.Append(Record{Op: OpIssue}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || l.Tail(5) != nil || l.HeadHash() != ([32]byte{}) {
		t.Fatal("nil log produced state")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l.ExposeMetrics(obs.NewRegistry())
}

func TestAuditMetricsAndHTTP(t *testing.T) {
	l, err := Open("", seccrypto.Key{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.ExposeMetrics(reg)
	appendLifecycle(t, l)
	snap := reg.Snapshot()
	if got := snap.Get("audit_records_total", map[string]string{"op": OpRenew}); got != 1 {
		t.Errorf("audit_records_total{op=renew} = %v, want 1", got)
	}
	if got := snap.Get("audit_chain_length", nil); got != 4 {
		t.Errorf("audit_chain_length = %v, want 4", got)
	}
	if got := snap.Get("audit_append_failures_total", nil); got != 0 {
		t.Errorf("audit_append_failures_total = %v, want 0", got)
	}
}

// TestAuditAppendBatch interleaves batched and single appends: the chain
// stays one contiguous, verifiable sequence across both, survives a
// reopen, and the /audit window keeps only the newest tailCap records.
func TestAuditAppendBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendLifecycle(t, l)
	batch := make([]Record, tailCap)
	for i := range batch {
		batch[i] = Record{Op: OpRenew, SLID: fmt.Sprintf("SL-%d", i), License: "lic", Units: int64(i + 1)}
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := l.Append(Record{Op: OpDeny, SLID: "SL-x", License: "lic", Err: "exhausted"}); err != nil {
		t.Fatalf("Append after a batch: %v", err)
	}
	if err := l.AppendBatch(batch[:3]); err != nil {
		t.Fatalf("second AppendBatch: %v", err)
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	want := uint64(4 + tailCap + 1 + 3)
	if l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify after batched appends: %v", err)
	}
	tail := l.Tail(0)
	if len(tail) != tailCap {
		t.Fatalf("retained window = %d records, want tailCap %d", len(tail), tailCap)
	}
	for i, rec := range tail {
		if rec.Seq != want-uint64(tailCap)+uint64(i)+1 {
			t.Fatalf("window record %d has seq %d, want %d", i, rec.Seq, want-uint64(tailCap)+uint64(i)+1)
		}
	}
	if tail[len(tail)-1].SLID != "SL-2" || tail[len(tail)-4].Op != OpDeny {
		t.Fatalf("window tail out of order: %+v", tail[len(tail)-4:])
	}
	head := l.HeadHash()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != want || l2.HeadHash() != head {
		t.Fatalf("reopen: len %d head %x, want %d / %x", l2.Len(), l2.HeadHash(), want, head)
	}
}

// TestAuditAppendBatchFailureKeepsHead proves a failed batch is all or
// nothing: neither an unencodable record nor a failing file advances the
// head, lands a record, or breaks the chain for later appends.
func TestAuditAppendBatchFailureKeepsHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := obs.NewRegistry()
	l.ExposeMetrics(reg)
	appendLifecycle(t, l)
	head, n := l.HeadHash(), l.Len()
	unchanged := func(what string) {
		t.Helper()
		if l.HeadHash() != head || l.Len() != n || len(l.Tail(0)) != int(n) {
			t.Fatalf("%s advanced the chain: len %d, want %d", what, l.Len(), n)
		}
		if err := l.Verify(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}

	// NaN does not encode: the batch fails before anything is written.
	bad := []Record{
		{Op: OpRenew, SLID: "SL-2", License: "lic", Units: 1},
		{Op: OpRenew, SLID: "SL-3", License: "lic", Units: 1, Alg1: &Alg1{Alpha: math.NaN()}},
	}
	if err := l.AppendBatch(bad); err == nil {
		t.Fatal("batch with an unencodable record succeeded")
	}
	unchanged("an unencodable batch")

	// A file that rejects the write: the whole batch is refused.
	file := l.file
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(bad[:1]); err == nil {
		t.Fatal("batch on a closed file succeeded")
	}
	if got := reg.Counter("audit_append_failures_total", "").Value(); got != 3 {
		t.Fatalf("audit_append_failures_total = %d, want 3 (one per record lost)", got)
	}
	reopened, _, err := store.OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.file = reopened
	l.mu.Unlock()
	unchanged("a failed write")

	if err := l.AppendBatch(bad[:1]); err != nil {
		t.Fatalf("append after failed batches: %v", err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("chain after recovery: %v", err)
	}
	l.Close()
}

func BenchmarkAuditAppendMemory(b *testing.B) {
	l, err := Open("", seccrypto.Key{})
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 128,
		Alg1: &Alg1{Alpha: 0.5, ScaleDown: 4, Health: 1, Reliability: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditAppendSealed(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "audit.log"), testKey(b))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := Record{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 128,
		Alg1: &Alg1{Alpha: 0.5, ScaleDown: 4, Health: 1, Reliability: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditVerify(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "audit.log"), testKey(b))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 256; i++ {
		if err := l.Append(Record{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
