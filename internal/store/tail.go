package store

import (
	"errors"
	"fmt"
	"os"
)

// TailBatch is one chunk of a generation-aware WAL follow: the records a
// replica has not applied yet, plus — when the replica's position is from
// a generation that has since been compacted away — the snapshot image it
// must rebase onto first.
type TailBatch struct {
	// Gen is the generation Records belong to. When it differs from the
	// position the caller asked about, Rebase is set.
	Gen uint64
	// Rebase reports that the caller's generation is gone (a snapshot
	// superseded it). Snapshot then holds generation Gen's full state
	// image (nil only when Gen is 0, whose base state is empty), and
	// Records restart from the head of Gen's WAL.
	Rebase bool
	// Snapshot is the (caller-sealed) state image that bases Gen. Only
	// set alongside Rebase.
	Snapshot []byte
	// Records are decoded WAL records starting at the requested offset
	// (or the head of the WAL on a rebase), oldest first. Empty when the
	// caller is caught up.
	Records [][]byte
	// NextOffset is the byte offset in Gen's WAL just past the last
	// returned record — the position to ask for next.
	NextOffset int64
	// Tip is the durable extent of Gen's WAL at serve time; Tip−NextOffset
	// is the follower's replication lag in bytes.
	Tip int64
}

// Caught reports whether the batch carries nothing new: the follower is at
// the durable tip of the leader's log.
func (b *TailBatch) Caught() bool { return !b.Rebase && len(b.Records) == 0 }

// TailSince returns the durable WAL records after position (gen, offset),
// bounded to roughly maxBytes of payload (0 means no bound; at least one
// record is always returned when one is available). Only bytes covered by
// an fsync (or buffered, under SyncOff — that mode's durability floor) are
// served, so a follower can never apply a record the leader might lose in
// a crash, which would un-create lease units the leader still remembers.
//
// If gen has been compacted away by a snapshot the batch rebases: it
// carries the current generation's snapshot image and records from that
// WAL's head. Positions beyond the durable tip of the current generation
// are an error — the follower's book-keeping is broken, not just stale.
func (s *Store) TailSince(gen uint64, offset int64, maxBytes int) (TailBatch, error) {
	// A snapshot can retire the generation between the position check and
	// the file reads; retry the whole look-up instead of failing a pull
	// the follower would immediately repeat.
	for attempt := 0; ; attempt++ {
		b, retry, err := s.tailOnce(gen, offset, maxBytes)
		if retry && attempt < 3 {
			continue
		}
		return b, err
	}
}

func (s *Store) tailOnce(gen uint64, offset int64, maxBytes int) (TailBatch, bool, error) {
	s.mu.Lock()
	curGen, synced := s.gen, s.size
	closed, wedged := s.closed, s.wedged
	s.mu.Unlock()
	if closed {
		return TailBatch{}, false, ErrClosed
	}
	if wedged != nil {
		return TailBatch{}, false, wedged
	}
	if gen > curGen {
		return TailBatch{}, false, fmt.Errorf("store: tail position at future generation %d (current %d)", gen, curGen)
	}

	batch := TailBatch{Gen: curGen, NextOffset: offset}
	if gen < curGen {
		// The follower's generation was compacted away; rebase it onto the
		// current generation's snapshot and restart from the WAL head.
		batch.Rebase = true
		batch.NextOffset = 0
		if curGen > 0 {
			raw, err := s.fsys.ReadFile(s.snapPath(curGen))
			if os.IsNotExist(err) {
				// Another snapshot just retired curGen too.
				return TailBatch{}, true, err
			}
			if err != nil {
				return TailBatch{}, false, fmt.Errorf("store: reading snapshot %d: %w", curGen, err)
			}
			img, n, err := decodeRecord(raw)
			if err != nil || n != len(raw) {
				if err == nil {
					err = fmt.Errorf("%w: %d trailing bytes", ErrCorruptRecord, len(raw)-n)
				}
				return TailBatch{}, false, fmt.Errorf("store: snapshot generation %d: %w", curGen, err)
			}
			batch.Snapshot = append([]byte(nil), img...)
		}
		// Records restart from the head; the synced extent read above may
		// belong to the old generation, so reread it for curGen.
		s.mu.Lock()
		if s.gen != curGen {
			s.mu.Unlock()
			return TailBatch{}, true, errors.New("store: generation moved during tail")
		}
		synced = s.size
		s.mu.Unlock()
	} else if offset > synced {
		return TailBatch{}, false, fmt.Errorf("store: tail offset %d beyond durable tip %d of generation %d", offset, synced, gen)
	}
	batch.Tip = synced

	limit := synced - batch.NextOffset
	if limit <= 0 {
		return batch, false, nil
	}
	raw, err := s.fsys.ReadFileFrom(s.walPath(curGen), batch.NextOffset)
	if os.IsNotExist(err) {
		// The WAL was retired by a snapshot between the position check and
		// the read.
		return TailBatch{}, true, err
	}
	if err != nil {
		return TailBatch{}, false, fmt.Errorf("store: reading WAL %d: %w", curGen, err)
	}
	if int64(len(raw)) > limit {
		// Bytes past the durable extent may be a torn or in-flight append.
		raw = raw[:limit]
	}
	if maxBytes > 0 && len(raw) > maxBytes {
		raw = raw[:maxBytes]
	}
	records, dangling, err := decodeAll(raw)
	if err != nil {
		return TailBatch{}, false, fmt.Errorf("store: WAL generation %d at offset %d: %w", curGen, batch.NextOffset, err)
	}
	if len(records) == 0 && dangling > 0 && maxBytes > 0 && int64(len(raw)) < limit {
		// The byte bound cut inside the first record; grow past it so the
		// pull always makes progress.
		return s.tailWhole(batch, curGen, limit)
	}
	batch.Records = make([][]byte, len(records))
	for i, r := range records {
		batch.Records[i] = append([]byte(nil), r...)
	}
	batch.NextOffset += int64(len(raw) - dangling)
	return batch, false, nil
}

// tailWhole rereads with the byte bound lifted just far enough to cover at
// least the first record after the batch's position.
func (s *Store) tailWhole(batch TailBatch, gen uint64, limit int64) (TailBatch, bool, error) {
	raw, err := s.fsys.ReadFileFrom(s.walPath(gen), batch.NextOffset)
	if err != nil {
		return TailBatch{}, os.IsNotExist(err), fmt.Errorf("store: reading WAL %d: %w", gen, err)
	}
	if int64(len(raw)) > limit {
		raw = raw[:limit]
	}
	rec, n, err := decodeRecord(raw)
	if err != nil {
		return TailBatch{}, false, fmt.Errorf("store: WAL generation %d at offset %d: %w", gen, batch.NextOffset, err)
	}
	batch.Records = [][]byte{append([]byte(nil), rec...)}
	batch.NextOffset += int64(n)
	return batch, false, nil
}
