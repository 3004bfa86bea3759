// Package store is SL-Remote's durability subsystem: an append-only
// write-ahead log plus periodic snapshots, built on stdlib only.
//
// SL-Remote is the root of trust of the whole SecureLease scheme — it
// holds the per-license GCL budgets, the SLID registry, and the escrowed
// lease-tree root keys that defeat stale-tree replay (Sections 4.4, 5.1,
// 5.7 of the paper) — so its state must survive a server restart with the
// same integrity discipline the in-enclave lease tree gets from
// Protect/Validate. The store provides:
//
//   - a WAL of length-prefixed, CRC32C-framed records that is fsynced on
//     every append (or, for benchmarks of the rest of the system, never).
//     There is no commit window: the group commit happens upstream, where
//     SL-Remote folds a whole coalesced renewal batch into one record, so
//     one fsync per append is one fsync per batch;
//   - generation-numbered snapshot files holding a full (sealed, by the
//     caller) state image, after which the previous generation's WAL and
//     snapshot are compacted away;
//   - Recover, which replays snapshot + WAL tail, truncates a torn final
//     record (crash mid-append), and refuses CRC-corrupt interior records
//     with a diagnostic error instead of silent data loss.
//
// The store moves opaque bytes. What those bytes mean — and which of them
// are sealed with seccrypto before they get here — is the caller's
// business (internal/slremote seals escrowed root keys and whole snapshot
// images so plaintext key material never leaves the simulated enclave).
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Logger is the write-ahead half of the persistence pair: Append durably
// logs one state-mutation record before the caller applies it in memory.
type Logger interface {
	Append(rec []byte) error
}

// Snapshotter is the compaction half: Snapshot atomically replaces the
// log-so-far with one full state image.
type Snapshotter interface {
	Snapshot(state []byte) error
}

// SyncMode selects the WAL's fsync discipline.
type SyncMode int

const (
	// SyncAlways fsyncs every append before Append returns. It is the
	// zero value.
	SyncAlways SyncMode = iota
	// SyncOff never fsyncs (the OS flushes when it pleases). Crash
	// durability is whatever the kernel left on disk; recovery still
	// handles the resulting torn tail.
	SyncOff
	// SyncBatched is the older name of SyncAlways, still accepted as
	// "-fsync batched". Appends are batched upstream, one coalesced
	// renewal batch per record, so the store itself has no window.
	SyncBatched = SyncAlways
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// ParseSyncMode parses the -fsync flag grammar: "always", "batched" (the
// same mode), "off".
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "batched":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync mode %q (want always, batched, or off)", s)
	}
}

// Options configures Open.
type Options struct {
	// Dir is the state directory; created (0700) if absent.
	Dir string
	// Mode is the fsync discipline (zero value: SyncAlways).
	Mode SyncMode
	// Metrics, when non-nil, receives WAL/snapshot/recovery observations
	// (see ExposeMetrics). Nil disables instrumentation at zero cost.
	Metrics *Metrics
	// FS substitutes a filesystem implementation (nil: the real one).
	// Fault-injection harnesses use this; production code leaves it nil.
	FS FS
}

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("store: closed")

// Store is a durable WAL + snapshot pair rooted at one directory. It is
// safe for concurrent use. Store implements Logger and Snapshotter.
type Store struct {
	mode    SyncMode
	dir     string
	metrics *Metrics
	fsys    FS

	mu     sync.Mutex
	f      File // current generation's WAL, opened for append
	gen    uint64
	size   int64 // bytes of whole frames in the current WAL, all durable (SyncAlways)
	closed bool
	wedged error // sticky failure after an unrecoverable rollback
}

// Open recovers the directory's persisted state and returns a store ready
// to append to the current generation's WAL, plus what it recovered: the
// newest valid snapshot image (nil on first boot) and every WAL record
// appended after it. A torn final record is physically truncated from the
// WAL file; interior corruption aborts with an error.
func Open(opts Options) (*Store, *Recovered, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("store: empty directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", opts.Dir, err)
	}
	start := time.Now()
	rec, err := RecoverFS(fsys, opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	opts.Metrics.observeRecovery(time.Since(start), len(rec.Records))

	s := &Store{
		mode:    opts.Mode,
		dir:     opts.Dir,
		metrics: opts.Metrics,
		fsys:    fsys,
		gen:     rec.Generation,
	}
	walPath := s.walPath(s.gen)
	f, err := fsys.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	valid := rec.walSize - rec.TruncatedBytes
	if rec.TruncatedBytes > 0 {
		// Drop the torn tail on disk too, so the next append starts at a
		// record boundary instead of extending a half-written frame.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seeking WAL end: %w", err)
	}
	s.f = f
	s.size = valid
	// Earlier generations are garbage once a newer snapshot validated; a
	// crash between snapshot rename and cleanup can leave them behind.
	s.removeStaleGenerations(rec.Generation)
	return s, rec, nil
}

// Append durably logs one record: it returns after the record's own
// fsync (SyncOff: after the buffered write). Appends are serialized, so
// outside Append every whole frame in the WAL is durable.
func (s *Store) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("store: empty record")
	}
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("store: record of %d bytes exceeds %d", len(rec), MaxRecordSize)
	}
	frame := appendRecord(nil, rec)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wedged != nil {
		return s.wedged
	}
	if _, err := s.f.Write(frame); err != nil {
		// A short or failed write may have left a partial frame on disk.
		// Cut the file back to the last full frame so the record boundary
		// discipline survives and later appends stay decodable.
		s.truncateToLocked(s.size, err)
		return fmt.Errorf("store: WAL append: %w", err)
	}
	s.metrics.observeAppend(len(frame))
	if s.mode != SyncOff {
		start := time.Now()
		err := s.f.Sync()
		s.metrics.observeFsync(time.Since(start))
		if err != nil {
			// The frame is written but not durable, and the caller will
			// abort its mutation — drop the frame so a recovery never
			// replays an event that was never applied.
			s.truncateToLocked(s.size, err)
			return fmt.Errorf("store: fsync: %w", err)
		}
	}
	s.size += int64(len(frame))
	return nil
}

// truncateToLocked cuts the WAL back to off after a failed write or fsync,
// repositioning the file offset (Truncate alone leaves it past the cut, and
// a later write would punch a zero-filled hole that recovery reads as a
// silently-truncating tail). If the cut itself fails the store wedges:
// every later Append reports the combined error instead of risking an
// interior-corrupt log.
func (s *Store) truncateToLocked(off int64, cause error) {
	if err := s.f.Truncate(off); err != nil {
		s.wedged = fmt.Errorf("store: WAL rollback after %v failed: %w", cause, err)
		return
	}
	if _, err := s.f.Seek(off, 0); err != nil {
		s.wedged = fmt.Errorf("store: WAL rollback after %v failed: %w", cause, err)
		return
	}
	s.size = off
}

// Snapshot writes a full state image as generation gen+1 and switches
// appends to a fresh WAL, then removes the previous generation's files.
// The image is written to a temporary file, fsynced, and renamed, so a
// crash at any point leaves either the old generation or the new one fully
// intact — never a half-written snapshot that recovery could mistake for
// state.
func (s *Store) Snapshot(state []byte) error {
	if len(state) == 0 {
		return errors.New("store: empty snapshot")
	}
	if len(state) > MaxRecordSize {
		return fmt.Errorf("store: snapshot of %d bytes exceeds %d", len(state), MaxRecordSize)
	}
	frame := appendRecord(nil, state)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wedged != nil {
		return s.wedged
	}
	// Every appended frame is already durable (Append fsyncs before it
	// releases the lock), so the snapshot supersedes nothing unsynced.
	next := s.gen + 1
	snapPath := s.snapPath(next)
	tmp := snapPath + ".tmp"
	if err := writeFileSync(s.fsys, tmp, frame); err != nil {
		return err
	}
	if err := s.fsys.Rename(tmp, snapPath); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	// Past the rename, a failure must retract the published file before
	// returning: recovery prefers the newest generation, so a snap-(gen+1)
	// left behind while appends continue into wal-gen would shadow every
	// later append at the next recovery.
	if err := s.fsys.SyncDir(s.dir); err != nil {
		s.retractSnapshotLocked(snapPath, err)
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	// The snapshot is durable: open the new generation's WAL and retire
	// the old files.
	f, err := s.fsys.OpenFile(s.walPath(next), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		s.retractSnapshotLocked(snapPath, err)
		return fmt.Errorf("store: opening WAL generation %d: %w", next, err)
	}
	old := s.f
	oldGen := s.gen
	s.f = f
	s.gen = next
	s.size = 0
	old.Close()
	s.fsys.Remove(s.walPath(oldGen))
	s.fsys.Remove(s.snapPath(oldGen))
	s.metrics.observeSnapshot(len(frame))
	return nil
}

// retractSnapshotLocked removes a published next-generation snapshot after
// a later step of the generation switch failed, so the store's view (still
// on the old generation) and the disk agree. If the removal itself fails
// the store wedges: continuing to append into a generation shadowed by a
// newer on-disk snapshot would lose those appends at the next recovery.
func (s *Store) retractSnapshotLocked(snapPath string, cause error) {
	if err := s.fsys.Remove(snapPath); err != nil {
		s.wedged = fmt.Errorf("store: retracting snapshot after %v failed: %w", cause, err)
	}
}

// Generation returns the current snapshot/WAL generation number.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Close closes the WAL. Every append already returned durable, so there
// is nothing left to flush. Appends after Close fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: closing WAL: %w", err)
	}
	return nil
}

func (s *Store) walPath(gen uint64) string  { return walPath(s.dir, gen) }
func (s *Store) snapPath(gen uint64) string { return snapPath(s.dir, gen) }

// removeStaleGenerations deletes WAL and snapshot files older than the
// live generation (best-effort; leftovers are ignored by recovery anyway).
func (s *Store) removeStaleGenerations(live uint64) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		gen, kind, ok := parseGenFile(e.Name())
		if !ok || gen >= live {
			continue
		}
		_ = kind
		s.fsys.Remove(filepath.Join(s.dir, e.Name()))
	}
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", path, err)
	}
	return nil
}
