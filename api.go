package dash

// This file is the public serving contract: the Searcher/Maintainer/Handle
// interfaces, dash.Open with its functional options, and handle — the one
// implementation of Handle. A handle is a sharded live index (S >= 1) plus
// nil-able optional layers; each method runs the layers it finds present
// in a fixed order, so call sites depend on the contract and never on
// which layers a deployment configured.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/fragindex"
	"repro/internal/replic"
	"repro/internal/search"
)

// Searcher is the read contract: every search takes a context first; an
// already-cancelled ctx returns ctx.Err() without touching a snapshot, and
// a cancellation or deadline arriving mid-search is honored cooperatively
// (a bounded number of heap pops after the signal — see the search
// package docs).
type Searcher interface {
	// Search answers one top-k query against the current index state.
	Search(ctx context.Context, req Request) ([]Result, error)
	// SearchBatch answers a batch of queries concurrently, all pinned to
	// one consistent index state; out[i] answers reqs[i]. Slots abandoned
	// by a cancellation carry ctx.Err().
	SearchBatch(ctx context.Context, reqs []Request) []BatchResult
	// Stats summarizes the serving index, with one block per present
	// optional layer.
	Stats() EngineStats
}

// Maintainer is the write contract: fold database changes into the
// serving index while searches keep running. Every method takes a context
// and every apply is transactional per shard — a cancellation, like any
// other error, publishes nothing in the failing shard's cycle (see
// ShardedLiveIndex for the cross-shard contract). A replica handle refuses
// every method with ErrReplicaReadOnly; a degraded durable handle refuses
// the publishing ones with ErrDurabilityDegraded.
type Maintainer interface {
	// Apply folds one delta into the index and publishes atomically.
	Apply(ctx context.Context, d Delta) (ApplyReport, error)
	// ApplyBatch coalesces a sequence of deltas into one publish per
	// touched shard.
	ApplyBatch(ctx context.Context, ds []Delta) (ApplyReport, error)
	// Queue buffers a delta for a later Flush without applying it,
	// returning the queue length.
	Queue(d Delta) (int, error)
	// Flush publishes every queued delta as one coalesced batch. An
	// already-cancelled ctx fails before the drain, leaving the queue
	// intact; after the drain the batch is gone whether or not the apply
	// succeeds.
	Flush(ctx context.Context) (ApplyReport, error)
	// Recrawl re-executes the application query for the given fragment
	// partitions only, derives the resulting delta, and publishes it.
	Recrawl(ctx context.Context, db *Database, ids []FragmentID) (ApplyReport, error)
	// RecrawlWith combines a targeted re-crawl with explicit extra changes
	// in one transactional delta.
	RecrawlWith(ctx context.Context, db *Database, ids []FragmentID, extra Delta) (ApplyReport, error)
	// RecrawlBatch combines a targeted re-crawl with a batch of explicit
	// deltas; everything coalesces into one publish per touched shard.
	RecrawlBatch(ctx context.Context, db *Database, ids []FragmentID, ds []Delta) (ApplyReport, error)
	// CompactIfNeeded runs the snapshot garbage collector, returning how
	// many shards compacted. On a durable handle it then checkpoints.
	CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (int, error)
}

// Handle is the full serving contract Open and OpenReplica return:
// searches and maintenance over one index, plus the reads of every
// optional layer. A layer the handle was not opened with answers
// explicitly — CacheBypass, a nil stats block, an empty state, ("",
// false), or a typed error — so callers never type-assert for it.
type Handle interface {
	Searcher
	Maintainer
	CachedSearcher

	// Checkpoint persists each shard's current state as a fresh snapshot
	// generation and truncates its journal. ErrNotDurable without
	// WithDataDir.
	Checkpoint(ctx context.Context) error
	// DurabilityStats reports the store's journal, checkpoint, recovery,
	// and health counters (it takes every shard lock); nil when the handle
	// is not durable.
	DurabilityStats() *DurabilityStats
	// DurabilityState reports the durability state machine's state (an
	// atomic read, safe on every request path); "" when not durable.
	DurabilityState() DurabilityState
	// DurabilityProbeIn reports how long until the degraded-mode prober
	// next re-tests the data dir (zero while healthy or when not durable)
	// — what serving layers derive Retry-After from for degraded writes.
	DurabilityProbeIn() time.Duration

	// ReplicationHandler serves the replication transport replicas
	// bootstrap from and tail — mount it under ReplicationPrefix with
	// http.StripPrefix. nil unless the handle is a durable leader.
	ReplicationHandler() http.Handler
	// ReplicationStats reports a replica's tail state; nil unless the
	// handle was opened with OpenReplica.
	ReplicationStats() *ReplicationStats
	// RouteSearch is the read-placement decision HTTP layers consult
	// before serving a search locally. When proxy is true the request
	// should be forwarded byte-for-byte to target (a base URL): a replica
	// sends reads it cannot satisfy to its leader, a WithReplicas leader
	// places eligible reads on a qualifying replica. ("", false) when the
	// handle has no routing layer or the read should stay local.
	RouteSearch(req Request) (target string, proxy bool)

	// Close stops the read router and the replica tail, then flushes
	// unsynced journal appends and releases the data directory. The handle
	// keeps serving searches afterwards, but durable writes fail: close it
	// last. A handle with none of those layers has nothing to release.
	Close() error
}

// openConfig accumulates functional options; zero values are the
// defaults.
type openConfig struct {
	shards         int    // 0: one shard, or the data dir's committed count
	dataDir        string // non-empty: durable serving rooted here
	syncPolicy     SyncPolicy
	retry          DurabilityRetryPolicy    // zero value: durable defaults
	fsys           faultfs.FS               // nil: the real os package
	cacheBytes     int64                    // > 0: epoch-keyed result cache budget
	admission      *search.AdmissionOptions // non-nil: deadline-aware shedding
	replicaURLs    []string                 // non-empty: bounded-staleness read routing
	stalenessBound int64                    // routing default bound; < 0: unbounded
}

// Option configures Open.
type Option func(*openConfig) error

// WithShards partitions the index across n independent publish cycles
// (default 1). See ARCHITECTURE.md for the routing and equivalence
// contract.
func WithShards(n int) Option {
	return func(c *openConfig) error {
		if n < 1 {
			return fmt.Errorf("dash: WithShards(%d): shard count must be >= 1", n)
		}
		c.shards = n
		return nil
	}
}

// WithDataDir makes the handle durable, rooted at dir: every publish
// journals its delta to disk before the swap that acknowledges it, and
// reopening the same directory recovers exactly the last acknowledged
// state. A fresh directory is seeded from the index passed to Open; an
// initialized one is recovered, idx must be nil, and the committed shard
// count pins the topology (see IsInitialized).
func WithDataDir(dir string) Option {
	return func(c *openConfig) error {
		if dir == "" {
			return fmt.Errorf("dash: WithDataDir: empty directory")
		}
		c.dataDir = dir
		return nil
	}
}

// WithSyncPolicy selects the journal sync discipline for WithDataDir
// (default: SyncAlways). SyncInterval trades the durability of the last
// interval's acknowledgements for append throughput.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *openConfig) error {
		c.syncPolicy = p
		return nil
	}
}

// WithDurabilityRetry tunes how a WithDataDir handle survives disk
// faults: transient append/checkpoint failures retry with capped
// exponential backoff; after FailureThreshold consecutive failures the
// handle degrades — searches keep serving, durable mutations fail fast
// with ErrDurabilityDegraded — until the background prober restores the
// data directory to service. The zero value means the durable defaults.
func WithDurabilityRetry(p DurabilityRetryPolicy) Option {
	return func(c *openConfig) error {
		c.retry = p
		return nil
	}
}

// WithDurableFS substitutes the filesystem the durable store writes
// through — the chaos-testing seam (faultfs.NewInjector wraps faultfs.OS
// with a programmable fault schedule). Only meaningful with WithDataDir;
// nil means the real os package.
func WithDurableFS(fsys faultfs.FS) Option {
	return func(c *openConfig) error {
		c.fsys = fsys
		return nil
	}
}

// WithReplicas layers bounded-staleness read routing over a durable
// leader handle: the handle polls each replica's readiness report and its
// RouteSearch places reads with no explicit MinEpoch on any replica within
// DefaultStalenessBound epochs of the leader's current epoch, falling back
// to serving locally when none qualifies. Requires WithDataDir (replicas
// bootstrap from the leader's snapshots and tail its journal). urls are
// replica base URLs (dashserve processes started with -replica-of pointing
// back at this leader).
func WithReplicas(urls ...string) Option {
	return func(c *openConfig) error {
		if len(urls) == 0 {
			return fmt.Errorf("dash: WithReplicas: no replica URLs")
		}
		c.replicaURLs = urls
		if c.stalenessBound == 0 {
			c.stalenessBound = DefaultStalenessBound
		}
		return nil
	}
}

// WithStalenessBound overrides the default routing bound WithReplicas
// applies to requests that carry no explicit MinEpoch: a replica must be
// within `epochs` epochs of the leader's current epoch to serve them.
// Negative means unbounded — any healthy replica qualifies.
func WithStalenessBound(epochs int) Option {
	return func(c *openConfig) error {
		if epochs == 0 {
			return fmt.Errorf("dash: WithStalenessBound(0): a zero bound would route nothing; use a positive bound or negative for unbounded")
		}
		c.stalenessBound = int64(epochs)
		return nil
	}
}

// Open wraps a built index for serving behind the one public contract:
// the fragment space partitioned by equality-group key across
// WithShards(n) shards (default 1), scatter-gather searches, per-shard
// publish cycles, and whichever optional layers the options add. Results
// are byte-identical to a search over the unpartitioned index (at any
// shard count unless K truncates the result stream, and always at S = 1 —
// the equivalence tests pin this down), so the shard count is purely
// operational: write rate and core count.
//
// Open takes ownership of idx: all further access must go through the
// returned Handle. app may be nil when URL formulation is not needed.
//
// ctx bounds the open itself — chiefly durable recovery and seeding, which
// read and replay on-disk state shard by shard. A nil ctx is tolerated and
// degrades to "not cancellable". ctx is not retained by the handle.
func Open(ctx context.Context, idx *Index, app *Application, opts ...Option) (Handle, error) {
	ctx = orBackground(ctx)
	var cfg openConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	h := &handle{app: app}
	var err error
	switch {
	case cfg.dataDir != "":
		if h.live, h.store, err = openDurable(ctx, idx, cfg); err != nil {
			return nil, err
		}
	case len(cfg.replicaURLs) > 0:
		return nil, fmt.Errorf("dash: WithReplicas requires WithDataDir (replicas tail the durable journal)")
	case idx == nil:
		return nil, fmt.Errorf("dash: Open with a nil index (only a durable reopen serves without one)")
	default:
		if h.live, err = fragindex.NewShardedLive(idx, max(cfg.shards, 1)); err != nil {
			return nil, err
		}
	}
	h.engine = search.NewSharded(h.live, app)
	if cfg.cacheBytes > 0 {
		h.cache = search.NewResultCache(cfg.cacheBytes)
	}
	if cfg.admission != nil {
		h.ac = search.NewAdmissionController(*cfg.admission)
	}
	if len(cfg.replicaURLs) > 0 {
		h.router = replic.NewRouter(cfg.replicaURLs, replic.RouterOptions{})
		h.bound = cfg.stalenessBound
	}
	return h, nil
}

// orBackground tolerates a nil context at the API boundary so a forgotten
// ctx degrades to "not cancellable" instead of a panic inside the cache
// and admission layers.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// handle is the one Handle implementation: a sharded live index and its
// scatter-gather engine, plus optional layers that are nil when absent.
// Searches run admission → cache → pin → SearchPinned; writes run replica
// refusal → degraded gate → maintenance lock → routed apply → cache sweep;
// Stats attaches each present layer's block. All methods are safe for
// concurrent use.
type handle struct {
	app    *Application
	live   *fragindex.ShardedLiveIndex
	engine *search.ShardedEngine

	// mu serializes the whole maintenance cycle (derive + apply), so delta
	// classification always runs against the latest published state.
	mu sync.Mutex
	// pendMu guards the Queue/Flush buffer: deltas wait unrouted and
	// partition across shards only at Flush, and Queue never blocks on an
	// in-flight publish.
	pendMu  sync.Mutex
	pending []Delta

	cache   *search.ResultCache         // WithResultCache
	ac      *search.AdmissionController // WithAdmissionControl
	store   *durable.Store              // WithDataDir
	router  *replic.Router              // WithReplicas: leader-side read placement
	replica *replic.Replica             // OpenReplica: journal tail, no write path
	// bound is the staleness bound in epochs (< 0: unbounded): how far a
	// replica may trail the leader's epoch and still take routed reads
	// (router), or lag its leader before forwarding reads back (replica).
	bound int64
}

// Stats reports the index's serving stats (Queued is the handle's Queue
// buffer) with a block for each present layer.
func (h *handle) Stats() EngineStats {
	st := h.engine.Stats()
	h.pendMu.Lock()
	st.Queued = len(h.pending)
	h.pendMu.Unlock()
	if h.cache != nil {
		cs := h.cache.Stats()
		st.Cache = &cs
	}
	if h.ac != nil {
		as := h.ac.Stats()
		st.Admission = &as
	}
	st.Durability = h.DurabilityStats()
	if h.router != nil {
		rs := h.router.Stats()
		st.Replicas = &rs
	}
	st.Replication = h.ReplicationStats()
	return st
}

// writable is the write path's refusals, in order: a replica has no write
// path at all, and a degraded durable store fails mutations fast — the
// disk just proved unreliable, so no publish cycle starts that could not
// be made durable (the same typed error would surface from the publish
// hook, but failing first keeps degraded writes cheap and unwrapped).
func (h *handle) writable() error {
	if h.replica != nil {
		return ErrReplicaReadOnly
	}
	if h.store != nil {
		return h.store.DegradedErr()
	}
	return nil
}

// write runs one maintenance cycle under the write path's fixed order.
// The sweep runs whether or not the apply succeeded: a routed apply can
// publish on some shards before failing on another.
func (h *handle) write(apply func() (ApplyReport, error)) (ApplyReport, error) {
	if err := h.writable(); err != nil {
		return ApplyReport{}, err
	}
	h.mu.Lock()
	rep, err := apply()
	h.mu.Unlock()
	h.sweep()
	return rep, err
}

// Apply routes a delta's changes to their shards and applies them
// concurrently (transactional per shard).
func (h *handle) Apply(ctx context.Context, d Delta) (ApplyReport, error) {
	return h.write(func() (ApplyReport, error) { return h.live.Apply(ctx, d) })
}

// ApplyBatch coalesces a sequence of deltas and applies the net changes
// concurrently across shards — one publish per touched shard.
func (h *handle) ApplyBatch(ctx context.Context, ds []Delta) (ApplyReport, error) {
	return h.write(func() (ApplyReport, error) { return h.live.ApplyBatch(ctx, ds) })
}

// Queue buffers a delta for a later batched publish. Nothing publishes,
// so a degraded store does not refuse it — Flush does.
func (h *handle) Queue(d Delta) (int, error) {
	if h.replica != nil {
		return 0, ErrReplicaReadOnly
	}
	h.pendMu.Lock()
	defer h.pendMu.Unlock()
	h.pending = append(h.pending, d)
	return len(h.pending), nil
}

// Flush drains the queue and applies everything as one coalesced, routed
// batch. Refusals leave the queue untouched.
func (h *handle) Flush(ctx context.Context) (ApplyReport, error) {
	return h.write(func() (ApplyReport, error) {
		if err := orBackground(ctx).Err(); err != nil {
			return ApplyReport{}, err
		}
		h.pendMu.Lock()
		batch := h.pending
		h.pending = nil
		h.pendMu.Unlock()
		return h.live.ApplyBatch(ctx, batch)
	})
}

// Recrawl re-executes the application query for the given fragment
// partitions only — not the whole database — derives the resulting Delta
// (inserts, removals, updates), and publishes it. This is the paper's
// §VIII "efficient update mechanism" end to end: after database rows
// change, pass every fragment identifier whose partition is affected.
func (h *handle) Recrawl(ctx context.Context, db *Database, ids []FragmentID) (ApplyReport, error) {
	return h.RecrawlWith(ctx, db, ids, Delta{})
}

// RecrawlWith combines a targeted re-crawl with explicit extra changes and
// applies everything as one routed delta. Derivation runs under the
// maintenance lock and classifies against the latest published shard
// snapshots, so concurrent maintenance calls observe each other's results
// instead of racing.
func (h *handle) RecrawlWith(ctx context.Context, db *Database, ids []FragmentID, extra Delta) (ApplyReport, error) {
	return h.write(func() (ApplyReport, error) {
		d := Delta{
			SelAttrs: extra.SelAttrs,
			Changes:  append([]FragmentChange(nil), extra.Changes...),
		}
		if len(ids) > 0 {
			derived, err := h.derive(ctx, db, ids)
			if err != nil {
				return ApplyReport{}, err
			}
			if d.SelAttrs == nil {
				d.SelAttrs = derived.SelAttrs
			}
			d.Changes = append(d.Changes, derived.Changes...)
		}
		return h.live.Apply(ctx, d)
	})
}

// RecrawlBatch combines a targeted re-crawl with a batch of explicit
// deltas; the whole batch coalesces (changes to one fragment fold before
// touching the index) and each touched shard pays one publish.
func (h *handle) RecrawlBatch(ctx context.Context, db *Database, ids []FragmentID, ds []Delta) (ApplyReport, error) {
	return h.write(func() (ApplyReport, error) {
		batch := append([]Delta(nil), ds...)
		if len(ids) > 0 {
			derived, err := h.derive(ctx, db, ids)
			if err != nil {
				return ApplyReport{}, err
			}
			batch = append(batch, derived)
		}
		return h.live.ApplyBatch(ctx, batch)
	})
}

// derive re-crawls the given partitions against the latest published
// shard snapshots. Caller holds h.mu.
func (h *handle) derive(ctx context.Context, db *Database, ids []FragmentID) (Delta, error) {
	if h.app == nil {
		return Delta{}, errors.New("dash: Recrawl needs an application bound to the engine")
	}
	bound, err := h.app.Bound()
	if err != nil {
		return Delta{}, err
	}
	return crawl.DeriveDelta(ctx, db, bound, ids, h.live.Has)
}

// CompactIfNeeded runs the snapshot garbage collector on every shard and,
// on a durable handle, then checkpoints every shard — compacted or not —
// so the journal is truncated and the on-disk generation reflects the
// served state ("compaction doubles as checkpoint"). A replica refuses: a
// local compaction would advance its epochs outside the leader's sequence
// and collide with tailed records — replicas inherit compaction through
// re-bootstrap instead.
func (h *handle) CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (int, error) {
	if err := h.writable(); err != nil {
		return 0, err
	}
	n, err := h.live.CompactIfNeeded(ctx, maxDeadRatio)
	if err == nil && h.store != nil {
		err = h.Checkpoint(ctx)
	}
	h.sweep()
	return n, err
}

// Close stops the read router and the replica tail (the last applied
// state keeps serving), then closes the durable store.
func (h *handle) Close() error {
	if h.router != nil {
		h.router.Stop()
	}
	if h.replica != nil {
		return h.replica.Close()
	}
	if h.store != nil {
		return h.store.Close()
	}
	return nil
}
