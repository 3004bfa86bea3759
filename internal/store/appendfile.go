package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// AppendFile is a standalone append-only record file using the store's
// frame discipline (4-byte length + CRC32C + payload) without the WAL's
// snapshot/generation machinery. It backs logs that must never be
// compacted — the audit package's hash chain is the client — where every
// append is fsynced and recovery applies the same torn-tail rule as the
// WAL: a short or zero-filled final frame is truncated, interior
// corruption fails loudly with ErrCorruptRecord.
type AppendFile struct {
	mu     sync.Mutex
	f      File
	path   string
	size   int64 // bytes known durable: every frame written and fsynced
	wedged error // sticky failure after an unrecoverable rollback
}

// OpenAppendFile opens (creating if absent) the record file at path and
// returns the intact records already in it, oldest first. A torn final
// frame is physically truncated away before appending resumes; corruption
// before the tail is returned as an error and the file is left untouched.
// The returned payload slices do not alias the file.
func OpenAppendFile(path string) (*AppendFile, [][]byte, error) {
	return OpenAppendFileFS(OSFS(), path)
}

// OpenAppendFileFS is OpenAppendFile through an explicit filesystem (see FS).
func OpenAppendFileFS(fsys FS, path string) (*AppendFile, [][]byte, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s parent: %w", path, err)
	}
	buf, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	records, truncated, err := decodeAll(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", path, err)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	valid := int64(len(buf) - truncated)
	if truncated > 0 {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: syncing %s after truncate: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("store: seeking %s: %w", path, err)
	}
	out := make([][]byte, len(records))
	for i, r := range records {
		out[i] = append([]byte(nil), r...)
	}
	return &AppendFile{f: f, path: path, size: valid}, out, nil
}

// Append frames, writes, and fsyncs one record: AppendBatch of one.
func (a *AppendFile) Append(payload []byte) error {
	return a.AppendBatch([][]byte{payload})
}

// AppendBatch frames every payload, writes the frames with one write and
// makes them durable with one fsync: all of them land or none does. A
// failed write or fsync is rolled back to the last durable frame: clients
// of AppendFile (the audit chain) treat appends as best-effort and keep
// going, so a partial frame left in place would corrupt the interior of
// the file for every append after it.
func (a *AppendFile) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	n := 0
	for _, p := range payloads {
		if len(p) == 0 {
			return fmt.Errorf("store: empty record")
		}
		if len(p) > MaxRecordSize {
			return fmt.Errorf("store: record of %d bytes exceeds %d", len(p), MaxRecordSize)
		}
		n += frameHeaderSize + len(p)
	}
	frames := make([]byte, 0, n)
	for _, p := range payloads {
		frames = appendRecord(frames, p)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return fmt.Errorf("store: %s: append after close", a.path)
	}
	if a.wedged != nil {
		return a.wedged
	}
	if _, err := a.f.Write(frames); err != nil {
		a.rollbackLocked(err)
		return fmt.Errorf("store: appending to %s: %w", a.path, err)
	}
	if err := a.f.Sync(); err != nil {
		a.rollbackLocked(err)
		return fmt.Errorf("store: syncing %s: %w", a.path, err)
	}
	a.size += int64(len(frames))
	return nil
}

// rollbackLocked cuts the file back to the last durable frame and
// repositions the offset; if that fails the file wedges rather than risk
// interleaving new frames after a partial one.
func (a *AppendFile) rollbackLocked(cause error) {
	if err := a.f.Truncate(a.size); err != nil {
		a.wedged = fmt.Errorf("store: %s: rollback after %v failed: %w", a.path, cause, err)
		return
	}
	if _, err := a.f.Seek(a.size, 0); err != nil {
		a.wedged = fmt.Errorf("store: %s: rollback after %v failed: %w", a.path, cause, err)
	}
}

// Path returns the file's path.
func (a *AppendFile) Path() string { return a.path }

// Close closes the file; further Appends fail.
func (a *AppendFile) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}

// ReadAppendFile reads every intact record currently in the file at path
// (a torn tail is tolerated but not truncated — the file is opened
// read-only, so a live writer is unaffected). Used by audit.Verify to
// re-walk a chain that is still being written.
func ReadAppendFile(path string) ([][]byte, error) {
	return ReadAppendFileFS(OSFS(), path)
}

// ReadAppendFileFS is ReadAppendFile through an explicit filesystem (see FS).
func ReadAppendFileFS(fsys FS, path string) ([][]byte, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	records, _, err := decodeAll(buf)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	out := make([][]byte, len(records))
	for i, r := range records {
		out[i] = append([]byte(nil), r...)
	}
	return out, nil
}
