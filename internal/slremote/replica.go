package slremote

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// Replica is a warm-standby SL-Remote built by folding a leader's shipped
// WAL stream, record by record, through the same apply helpers recovery
// uses — so a follower's state is, at every instant, exactly the state a
// crash-recovery of the leader would reach from the records shipped so
// far. It serves no clients and logs nothing; Promote turns it into a
// serving Server when the leader dies.
type Replica struct {
	s       *Server
	applied atomic.Int64
	// promoted latches Promote: once the underlying server is serving (and
	// write-ahead-logging to its own store), folding more of the dead
	// leader's records into it would corrupt the new incarnation.
	promoted bool
}

// NewReplica builds an empty replica. The seal key must match the leader's
// (shipped snapshot images and escrow records are sealed with it); the
// attestation service is carried to the promoted server, where it guards
// InitClient exactly as on any leader.
func NewReplica(cfg Config, service *attest.Service, sealKey seccrypto.Key) (*Replica, error) {
	if sealKey.IsZero() {
		return nil, errors.New("slremote: replica without a seal key")
	}
	s, err := NewServer(cfg, service)
	if err != nil {
		return nil, err
	}
	// Replay needs the seal key but must not re-log what the leader
	// already made durable — the same unattached-persister trick
	// RecoverServer uses.
	s.persist = &persister{sealKey: sealKey}
	return &Replica{s: s}, nil
}

// Rebase discards the replica's state and installs a leader snapshot image
// (sealed; nil means the empty state — a leader still on generation 0).
// The WAL records that follow a rebase start from that image's generation.
func (r *Replica) Rebase(sealed []byte) error {
	if r.promoted {
		return errors.New("slremote: replica already promoted")
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	var img snapshotImage
	if sealed != nil {
		plain, err := seccrypto.Validate(sealed, r.s.persist.sealKey)
		if err != nil {
			return fmt.Errorf("slremote: unsealing shipped snapshot (wrong seal key, or tampered image): %w", err)
		}
		if err := json.Unmarshal(plain, &img); err != nil {
			return fmt.Errorf("slremote: decoding shipped snapshot: %w", err)
		}
	}
	r.s.resetLocked()
	if sealed == nil {
		return nil
	}
	return r.s.restoreImageLocked(img)
}

// Apply folds one shipped WAL record into the replica. Like recovery,
// replay tolerates nothing: a record that does not fit the state means the
// follower and the leader have diverged, and the replica must fail loudly
// rather than promote a subtly different server.
func (r *Replica) Apply(rec []byte) error {
	if r.promoted {
		return errors.New("slremote: replica already promoted")
	}
	var ev event
	if err := json.Unmarshal(rec, &ev); err != nil {
		return fmt.Errorf("slremote: decoding shipped record: %w", err)
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if err := r.s.applyEventLocked(ev); err != nil { //sllint:ignore walorder the record is already durable in the leader's WAL; the replica folds outcomes, it never originates them
		return fmt.Errorf("slremote: applying shipped %s record: %w", ev.Op, err)
	}
	r.applied.Add(1)
	return nil
}

// ApplyBatch folds one store.TailBatch: the rebase image first (when
// present), then every record, oldest first. It returns the number of
// records applied.
func (r *Replica) ApplyBatch(b store.TailBatch) (int, error) {
	if b.Rebase {
		if err := r.Rebase(b.Snapshot); err != nil {
			return 0, err
		}
	}
	for i, rec := range b.Records {
		if err := r.Apply(rec); err != nil {
			return i, err
		}
	}
	return len(b.Records), nil
}

// Applied returns the number of WAL records folded since the last rebase
// discarded the count's baseline — the follower's replication progress.
func (r *Replica) Applied() int64 { return r.applied.Load() }

// State deep-copies the replica's current state, for conservation checks
// and replication-lag tests.
func (r *Replica) State() State { return r.s.ExportState() }

// Promote turns the replica into a serving Server: persistence attaches
// (the follower's own, fresh store), and when a Snapshotter is wired the
// inherited state is immediately compacted into a durable snapshot, so the
// new incarnation survives its own crash from the first request on. The
// caller must have stopped feeding the replica first; every later Rebase
// or Apply fails.
func (r *Replica) Promote(pc PersistConfig) (*Server, error) {
	if r.promoted {
		return nil, errors.New("slremote: replica already promoted")
	}
	if err := pc.validate(); err != nil {
		return nil, err
	}
	r.s.mu.Lock()
	r.s.persist = &persister{
		log:           pc.Log,
		snap:          pc.Snap,
		sealKey:       pc.SealKey,
		snapshotEvery: pc.SnapshotEvery,
	}
	r.s.mu.Unlock()
	r.promoted = true
	if pc.Snap != nil {
		if err := r.s.SnapshotNow(); err != nil {
			return nil, fmt.Errorf("slremote: snapshotting promoted state: %w", err)
		}
	}
	return r.s, nil
}

// resetLocked discards every license, client, and counter; Rebase installs
// a whole new image on the empty state.
func (s *Server) resetLocked() {
	s.licenses = make(map[string]*License)
	s.clients = make(map[string]*clientState)
	s.holders = make(map[string][]*clientState)
	s.nextSLID = 0
	s.stats = ServerStats{}
}
