package cluster

import (
	"context"
	"fmt"
	"net"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// NodeOptions configures one shard server.
type NodeOptions struct {
	// Shard is the hash range this node serves.
	Shard int
	// Dir is the node's own state directory (WAL + snapshots). Every
	// incarnation of a shard gets a fresh directory: a promoted follower
	// never writes into its dead leader's files.
	Dir string
	// SealKey seals snapshots, escrow records, and the audit chain. One
	// key per cluster — shipped snapshots must unseal on the follower.
	SealKey seccrypto.Key
	// Config is the Algorithm 1 parameter set, shared by every shard.
	Config slremote.Config
	// Service gates InitClient attestation (nil: open attestation).
	Service *attest.Service
	// Channel is the wire channel config (attested or explicitly
	// insecure). Each node needs its own config instance.
	Channel *ratls.Config
	// Directory resolves shard ownership; the node's gate consults it on
	// every license-scoped request.
	Directory *Directory
	// Audit is the shard's tamper-evident lease audit chain (nil: none).
	// It outlives any one leader: a promoted follower appends to the same
	// chain, which is how the chain stays verifiable across failovers.
	Audit *audit.Log
	// SyncMode is the WAL durability mode (zero value: SyncAlways).
	SyncMode store.SyncMode
	// SnapshotEvery compacts the WAL after this many records (0: only on
	// demand).
	SnapshotEvery int
	// Obs is the node's observability bundle (nil: unobserved). When set,
	// every subsystem the node touches — server, wire, channel, store,
	// audit — registers its metrics with the bundle's registry, traces
	// into its tracer, and emits flight events into its recorder, and the
	// wire server answers obs_pull scrapes from it.
	Obs *NodeObs
	// ListenAddr is the node's wire listen address (default 127.0.0.1:0,
	// an ephemeral loopback port — right for in-process clusters; the
	// sl-remote daemon passes its -addr).
	ListenAddr string
	// AdvertiseAddr is the address the node is known by in the directory
	// (default: the bound listener address). Daemons listening on a
	// wildcard address must advertise the address their -peer list uses,
	// or the gate would judge the node a stranger to its own shard.
	AdvertiseAddr string
	// Logf receives server logs (nil: silent).
	Logf func(string, ...any)
}

// Node is one running shard server: a durable slremote.Server behind a
// wire listener, gated by the cluster directory and exposing its WAL as a
// replication source.
type Node struct {
	shard  int
	dir    string
	addr   string
	store  *store.Store
	remote *slremote.Server
	wsrv   *wire.Server
	obs    *NodeObs
	done   chan struct{}
	killed bool
}

// StartNode opens (or recovers) the node's store, stands the server up on
// a loopback listener, and registers it as its shard's leader in the
// directory.
func StartNode(opts NodeOptions) (*Node, error) {
	st, rec, err := store.Open(store.Options{
		Dir: opts.Dir, Mode: opts.SyncMode, Metrics: opts.Obs.StoreMetrics(),
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d store: %w", opts.Shard, err)
	}
	remote, err := slremote.RecoverServer(opts.Config, opts.Service, rec, slremote.PersistConfig{
		Log: st, Snap: st, SealKey: opts.SealKey, SnapshotEvery: opts.SnapshotEvery,
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("cluster: shard %d server: %w", opts.Shard, err)
	}
	n, err := serveNode(opts, st, remote)
	if err != nil {
		st.Close()
		return nil, err
	}
	return n, nil
}

// serveNode wraps an already-built server in the wire layer and starts
// serving; StartNode and Follower.Promote share it so a promoted follower
// is indistinguishable from a freshly started leader.
func serveNode(opts NodeOptions, st *store.Store, remote *slremote.Server) (*Node, error) {
	remote.AttachAudit(opts.Audit)
	wsrv, err := wire.NewServer(remote, opts.Logf, opts.Channel)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d wire server: %w", opts.Shard, err)
	}
	if o := opts.Obs; o != nil {
		remote.ExposeMetrics(o.Registry)
		remote.SetFlightRecorder(o.Flight)
		wsrv.ExposeMetrics(o.Registry, o.Tracer)
		wsrv.SetFlightRecorder(o.Flight)
		wsrv.SetObsSource(o.PullSource())
		if opts.Channel != nil {
			opts.Channel.ExposeMetrics(o.Registry, o.Tracer)
			opts.Channel.SetFlightRecorder(o.Flight)
		}
		if opts.Audit != nil {
			opts.Audit.ExposeMetrics(o.Registry)
		}
	}
	listenAddr := opts.ListenAddr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d listen: %w", opts.Shard, err)
	}
	addr := opts.AdvertiseAddr
	if addr == "" {
		addr = ln.Addr().String()
	}
	n := &Node{
		shard:  opts.Shard,
		dir:    opts.Dir,
		addr:   addr,
		store:  st,
		remote: remote,
		wsrv:   wsrv,
		obs:    opts.Obs,
		done:   make(chan struct{}),
	}
	wsrv.SetShardGate(opts.Directory.Gate(opts.Shard, n.addr))
	wsrv.SetReplSource(st)
	go func() {
		defer close(n.done)
		_ = wsrv.Serve(ln)
	}()
	return n, nil
}

// Addr is the node's listen address.
func (n *Node) Addr() string { return n.addr }

// Shard is the hash range the node serves.
func (n *Node) Shard() int { return n.shard }

// Remote is the node's SL-Remote instance; harnesses drive it directly to
// skip the wire layer.
func (n *Node) Remote() *slremote.Server { return n.remote }

// Store is the node's WAL store — the replication source followers tail.
func (n *Node) Store() *store.Store { return n.store }

// Obs is the node's observability bundle (nil when unobserved).
func (n *Node) Obs() *NodeObs { return n.obs }

// Kill simulates the leader dying: the listener and every connection drop
// and the store is abandoned without a snapshot or a clean close. The
// state directory survives (a real crash leaves the files), but the
// failover path never reads it — the follower's shipped state takes over.
func (n *Node) Kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.wsrv.Close()
	<-n.done
	// A SIGKILLed process takes its exposition endpoint with it; the
	// fleet aggregator sees scrape errors and rising staleness.
	n.obs.Close()
}

// Shutdown drains in-flight requests, snapshots, and closes the store —
// the graceful exit for end-of-run teardown.
func (n *Node) Shutdown(ctx context.Context) error {
	if n.killed {
		return nil
	}
	n.killed = true
	if err := n.wsrv.Shutdown(ctx); err != nil {
		n.wsrv.Close()
	}
	<-n.done
	n.obs.Close()
	if err := n.remote.SnapshotNow(); err != nil {
		return fmt.Errorf("cluster: shard %d final snapshot: %w", n.shard, err)
	}
	if err := n.store.Close(); err != nil {
		return fmt.Errorf("cluster: shard %d closing store: %w", n.shard, err)
	}
	return nil
}
