package store

import (
	"bytes"
	"fmt"
	"testing"
)

func tailAppend(t *testing.T, s *Store, recs ...[]byte) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestTailSinceFollowsAppends(t *testing.T) {
	s, rec, err := Open(Options{Dir: t.TempDir(), Mode: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if !rec.Empty() {
		t.Fatalf("fresh dir recovered state")
	}

	tailAppend(t, s, []byte("one"), []byte("two"))
	b, err := s.TailSince(0, 0, 0)
	if err != nil {
		t.Fatalf("TailSince: %v", err)
	}
	if b.Rebase || b.Gen != 0 {
		t.Fatalf("unexpected rebase: %+v", b)
	}
	if len(b.Records) != 2 || !bytes.Equal(b.Records[0], []byte("one")) || !bytes.Equal(b.Records[1], []byte("two")) {
		t.Fatalf("records = %q", b.Records)
	}

	// Caught up: same position returns nothing.
	b2, err := s.TailSince(b.Gen, b.NextOffset, 0)
	if err != nil {
		t.Fatalf("TailSince caught-up: %v", err)
	}
	if !b2.Caught() {
		t.Fatalf("expected caught-up batch, got %+v", b2)
	}

	// New appends show up from the saved position only.
	tailAppend(t, s, []byte("three"))
	b3, err := s.TailSince(b.Gen, b.NextOffset, 0)
	if err != nil {
		t.Fatalf("TailSince after append: %v", err)
	}
	if len(b3.Records) != 1 || !bytes.Equal(b3.Records[0], []byte("three")) {
		t.Fatalf("records = %q", b3.Records)
	}
}

func TestTailSinceRebasesAfterSnapshot(t *testing.T) {
	s, _, err := Open(Options{Dir: t.TempDir(), Mode: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	tailAppend(t, s, []byte("pre-snap"))
	if err := s.Snapshot([]byte("image-1")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	tailAppend(t, s, []byte("post-snap"))

	// A follower still at generation 0 must rebase onto the snapshot.
	b, err := s.TailSince(0, 11, 0)
	if err != nil {
		t.Fatalf("TailSince: %v", err)
	}
	if !b.Rebase || b.Gen != 1 {
		t.Fatalf("expected rebase to gen 1, got %+v", b)
	}
	if !bytes.Equal(b.Snapshot, []byte("image-1")) {
		t.Fatalf("snapshot = %q", b.Snapshot)
	}
	if len(b.Records) != 1 || !bytes.Equal(b.Records[0], []byte("post-snap")) {
		t.Fatalf("records = %q", b.Records)
	}

	// From the rebased position the follow continues incrementally.
	tailAppend(t, s, []byte("later"))
	b2, err := s.TailSince(b.Gen, b.NextOffset, 0)
	if err != nil {
		t.Fatalf("TailSince: %v", err)
	}
	if b2.Rebase || len(b2.Records) != 1 || !bytes.Equal(b2.Records[0], []byte("later")) {
		t.Fatalf("follow after rebase = %+v", b2)
	}
}

func TestTailSinceByteBound(t *testing.T) {
	s, _, err := Open(Options{Dir: t.TempDir(), Mode: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	var want [][]byte
	for i := 0; i < 8; i++ {
		r := bytes.Repeat([]byte{byte('a' + i)}, 100)
		want = append(want, r)
	}
	tailAppend(t, s, want...)

	// Pull with a bound smaller than one record: progress must still be
	// one whole record per batch, never zero.
	var got [][]byte
	gen, off := uint64(0), int64(0)
	for i := 0; i < 20 && len(got) < len(want); i++ {
		b, err := s.TailSince(gen, off, 64)
		if err != nil {
			t.Fatalf("TailSince: %v", err)
		}
		if len(b.Records) == 0 {
			t.Fatalf("bounded pull made no progress at offset %d", off)
		}
		got = append(got, b.Records...)
		gen, off = b.Gen, b.NextOffset
	}
	if len(got) != len(want) {
		t.Fatalf("pulled %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestTailSinceRejectsBadPositions(t *testing.T) {
	s, _, err := Open(Options{Dir: t.TempDir(), Mode: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	tailAppend(t, s, []byte("x"))

	if _, err := s.TailSince(7, 0, 0); err == nil {
		t.Fatalf("future generation accepted")
	}
	if _, err := s.TailSince(0, 1<<20, 0); err == nil {
		t.Fatalf("offset past durable tip accepted")
	}
}

func TestTailSinceServesOnlyDurableBytes(t *testing.T) {
	// Under SyncOff the durability floor is the buffered write, so the
	// tail serves everything; this test pins that the served extent always
	// equals the synced watermark rather than the file size.
	s, _, err := Open(Options{Dir: t.TempDir(), Mode: SyncOff})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		tailAppend(t, s, []byte(fmt.Sprintf("r%d", i)))
	}
	b, err := s.TailSince(0, 0, 0)
	if err != nil {
		t.Fatalf("TailSince: %v", err)
	}
	if len(b.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(b.Records))
	}
	s.mu.Lock()
	synced := s.size
	s.mu.Unlock()
	if b.NextOffset != synced {
		t.Fatalf("NextOffset %d != synced %d", b.NextOffset, synced)
	}
}
