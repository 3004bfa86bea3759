package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendFileRoundTrip(t *testing.T) {
	// A nested path exercises parent-directory creation.
	path := filepath.Join(t.TempDir(), "sub", "log")
	f, recovered, err := OpenAppendFile(path)
	if err != nil {
		t.Fatalf("OpenAppendFile: %v", err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh file recovered %d records", len(recovered))
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, r := range want {
		if err := f.Append(r); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
	if f.Path() != path {
		t.Fatalf("Path() = %q", f.Path())
	}

	// A read-only walk sees the records while the writer is still open.
	live, err := ReadAppendFile(path)
	if err != nil {
		t.Fatalf("ReadAppendFile: %v", err)
	}
	if len(live) != len(want) {
		t.Fatalf("live read = %d records, want %d", len(live), len(want))
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Append([]byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}

	f2, recovered, err := OpenAppendFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f2.Close()
	if len(recovered) != len(want) {
		t.Fatalf("reopen recovered %d records, want %d", len(recovered), len(want))
	}
	for i := range want {
		if !bytes.Equal(recovered[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, recovered[i], want[i])
		}
	}
}

func TestAppendFileRejectsEmptyRecord(t *testing.T) {
	f, _, err := OpenAppendFile(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestAppendFileTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f, _, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header promising more bytes
	// than were written.
	torn := append(append([]byte(nil), intact...), 0, 0, 0, 9, 0xAB, 0xCD)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f2, recovered, err := OpenAppendFile(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if len(recovered) != 1 || string(recovered[0]) != "keep" {
		t.Fatalf("recovered %q, want just \"keep\"", recovered)
	}
	// The tail was physically removed, so appends resume on a clean edge.
	if err := f2.Append([]byte("next")); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered, err = OpenAppendFile(path)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if len(recovered) != 2 || string(recovered[1]) != "next" {
		t.Fatalf("after torn-tail repair: %q", recovered)
	}
}

func TestAppendFileInteriorCorruptionFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f, _, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"first", "second", "third"} {
		if err := f.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the first record: corruption before the
	// tail must be an error, not a silent truncation.
	raw[frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenAppendFile(path); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("open with interior corruption = %v, want ErrCorruptRecord", err)
	}
	if _, err := ReadAppendFile(path); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("read with interior corruption = %v, want ErrCorruptRecord", err)
	}
}

// countingFS counts the writes and fsyncs made through the files it opens.
type countingFS struct {
	FS
	writes, syncs int
}

type countingFile struct {
	File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) { f.fs.writes++; return f.File.Write(p) }
func (f *countingFile) Sync() error                 { f.fs.syncs++; return f.File.Sync() }

// TestAppendBatchOneWriteOneFsync pins AppendBatch's cost: N frames
// go out in one write and become durable with one fsync, and decode back
// as N records in order. A single Append is a batch of one.
func TestAppendBatchOneWriteOneFsync(t *testing.T) {
	fsys := &countingFS{FS: OSFS()}
	path := filepath.Join(t.TempDir(), "log")
	f, _, err := OpenAppendFileFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	batch := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd"), []byte("eeeee")}
	if err := f.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if fsys.writes != 1 || fsys.syncs != 1 {
		t.Fatalf("batch of %d cost %d writes and %d fsyncs, want 1 and 1", len(batch), fsys.writes, fsys.syncs)
	}
	if err := f.Append([]byte("solo")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := f.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	if fsys.writes != 2 || fsys.syncs != 2 {
		t.Fatalf("after one more append: %d writes, %d fsyncs, want 2 and 2", fsys.writes, fsys.syncs)
	}
	if err := f.AppendBatch([][]byte{[]byte("ok"), nil}); err == nil {
		t.Fatal("batch holding an empty record accepted")
	}
	recs, err := ReadAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(batch, []byte("solo"))
	if len(recs) != len(want) {
		t.Fatalf("read %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}
