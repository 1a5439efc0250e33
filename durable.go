package dash

// Durable serving: dash.Open(..., WithDataDir(dir)) puts the
// internal/durable store under the handle's write path. Every publish
// journals its folded delta before the snapshot swap (the
// fragindex.PublishHook seam), CompactIfNeeded doubles as a checkpoint,
// and reopening the same directory recovers exactly the last acknowledged
// durable publish.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/durable"
	"repro/internal/fragindex"
)

// Durability re-exports: the public surface of the durable layer.
type (
	// SyncPolicy configures when journal appends reach stable storage
	// (WithSyncPolicy).
	SyncPolicy = durable.SyncPolicy
	// SyncMode names a journal sync discipline.
	SyncMode = durable.SyncMode
	// DurabilityStats is the journal/checkpoint/recovery report a durable
	// handle answers (Handle.DurabilityStats).
	DurabilityStats = durable.Stats
	// RecoveryInfo reports what recovering one shard took.
	RecoveryInfo = durable.RecoveryInfo
	// DurabilityRetryPolicy tunes durable retry/backoff and degraded-mode
	// probing (WithDurabilityRetry).
	DurabilityRetryPolicy = durable.RetryPolicy
	// DurabilityState names the durability state machine's state
	// (DurabilityStats.State carries it as a string).
	DurabilityState = durable.State
)

// Durability state machine states.
const (
	// DurabilityHealthy: durable mutations reach stable storage.
	DurabilityHealthy = durable.StateHealthy
	// DurabilityDegraded: the data dir failed repeatedly; searches keep
	// serving but durable mutations fail fast with ErrDurabilityDegraded
	// until the background prober restores service.
	DurabilityDegraded = durable.StateDegraded
)

// Typed durability errors. Both surface through errors.Is whatever
// wrapping the publish path adds.
var (
	// ErrDurabilityDegraded is returned (possibly wrapped) by every
	// durable mutation — Apply, ApplyBatch, Recrawl*, Flush, Checkpoint,
	// CompactIfNeeded — while the handle is degraded. Searches are
	// unaffected. The handle recovers automatically when the prober
	// re-establishes the data directory.
	ErrDurabilityDegraded = durable.ErrDegraded
	// ErrClosed is returned by durable mutations after Close.
	ErrClosed = durable.ErrClosed
)

// Journal sync modes for WithSyncPolicy.
const (
	// SyncAlways fsyncs every journal append before the publish swap: an
	// acknowledged apply is durable, full stop. The default.
	SyncAlways = durable.SyncAlways
	// SyncInterval batches fsyncs on a timer: applies acknowledged within
	// the last interval may be lost to a crash — the throughput trade.
	SyncInterval = durable.SyncInterval
)

// IsInitialized reports whether dir already holds a committed durable data
// directory. Callers use it to decide whether Open needs a built index
// (fresh directory) or a nil one (recover the persisted state).
func IsInitialized(dir string) bool { return durable.IsInitialized(dir) }

// ErrNotDurable is returned by Checkpoint on a handle opened without
// WithDataDir: there is no store to checkpoint into.
var ErrNotDurable = errors.New("dash: handle has no data dir: nothing to checkpoint")

// openDurable is Open's WithDataDir path. A fresh directory is seeded
// from the caller's built index (after partitioning, so each shard
// persists exactly what it serves: every shard's canonical dump is written
// as its first snapshot generation, and only then does the MANIFEST commit
// the directory); an initialized directory is recovered — the persisted
// state wins, and a non-nil idx is rejected rather than silently
// discarded.
func openDurable(ctx context.Context, idx *Index, cfg openConfig) (_ *fragindex.ShardedLiveIndex, _ *durable.Store, err error) {
	st, err := durable.OpenWith(ctx, cfg.dataDir, cfg.syncPolicy,
		durable.Options{FS: cfg.fsys, Retry: cfg.retry})
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	var live *fragindex.ShardedLiveIndex
	if st.Fresh() {
		if idx == nil {
			return nil, nil, fmt.Errorf("dash: WithDataDir(%q): a fresh data dir needs a built index to seed", cfg.dataDir)
		}
		if live, err = fragindex.NewShardedLive(idx, max(cfg.shards, 1)); err != nil {
			return nil, nil, err
		}
		dumps := make([]*fragindex.Dump, live.NumShards())
		for i := range dumps {
			dumps[i] = live.Shard(i).Dump()
		}
		if err := st.Init(ctx, dumps); err != nil {
			return nil, nil, err
		}
	} else {
		if idx != nil {
			return nil, nil, fmt.Errorf("dash: WithDataDir(%q): directory is already initialized; pass a nil index to serve its recovered state", cfg.dataDir)
		}
		if cfg.shards != 0 && cfg.shards != st.NumShards() {
			return nil, nil, fmt.Errorf("dash: WithShards(%d) disagrees with the data dir's committed %d shards", cfg.shards, st.NumShards())
		}
		builders, _, err := st.Recover(ctx)
		if err != nil {
			return nil, nil, err
		}
		if live, err = fragindex.NewShardedLiveFrom(builders); err != nil {
			return nil, nil, err
		}
	}
	// Every shard's write-ahead hook appends the folded delta to its
	// journal (and, policy permitting, fsyncs it) before the snapshot swap
	// acknowledges the publish. The baseline is what degraded recovery
	// re-establishes past a poisoned journal: the builder rolls failed
	// publishes back, so a shard's Dump is always its last acknowledged
	// state.
	for i := 0; i < live.NumShards(); i++ {
		shard := i
		live.Shard(shard).SetPublishHook(func(ctx context.Context, d Delta, epoch uint64) error {
			return st.Append(ctx, shard, d, epoch)
		})
	}
	st.SetBaseline(func(_ context.Context, shard int) (*fragindex.Dump, error) {
		return live.Shard(shard).Dump(), nil
	})
	return live, st, nil
}

// Checkpoint writes each shard's current state as a new snapshot
// generation and rotates its journal. Concurrent applies keep their
// write-ahead guarantee throughout.
func (h *handle) Checkpoint(ctx context.Context) error {
	if h.store == nil {
		return ErrNotDurable
	}
	for i := 0; i < h.live.NumShards(); i++ {
		if err := orBackground(ctx).Err(); err != nil {
			return err
		}
		if err := h.store.Checkpoint(ctx, i, h.live.Shard(i).Dump()); err != nil {
			return err
		}
	}
	return nil
}

// DurabilityStats reports the store's journal, checkpoint, and recovery
// counters plus the durability state machine's health block.
func (h *handle) DurabilityStats() *DurabilityStats {
	if h.store == nil {
		return nil
	}
	ds := h.store.Stats()
	return &ds
}

// DurabilityState reports the state machine's state (atomic read).
func (h *handle) DurabilityState() DurabilityState {
	if h.store == nil {
		return ""
	}
	return h.store.State()
}

// DurabilityProbeIn reports the time until the prober's next data-dir
// test (atomic read; zero while healthy).
func (h *handle) DurabilityProbeIn() time.Duration {
	if h.store == nil {
		return 0
	}
	return h.store.NextProbeIn()
}
