// Package replic is the replication tier: it moves the durable layer's
// snapshot generations and journal records from one leader to N read
// replicas over HTTP, so read traffic scales horizontally while writes
// stay on the single durable leader.
//
// The leader side (Leader) serves three endpoints under /v1/replication:
//
//	GET /manifest                  shard topology, index spec, per-shard
//	                               durable epochs and snapshot generations
//	GET /snapshot?shard=S&epoch=E  one snapshot generation, byte-for-byte
//	                               (range requests supported, so an
//	                               interrupted bootstrap resumes mid-file)
//	GET /tail?shard=S&from=E       journal records with epoch > E, framed
//	                               with the journal record codec; long-polls
//	                               up to wait_ms when the cursor is caught up
//
// The replica side (Replica) bootstraps each shard from the newest
// snapshot generation, then tails the journal and applies records through
// fragindex.ApplyReplicated — the same Index.Fold the leader's publishes
// and journal replay run, published at the leader's exact epoch via the
// epoch-swap path. Reads on
// a replica are therefore byte-identical to the leader at the same epoch.
//
// Failure behavior is explicitly bounded: a severed transport leaves the
// replica stale-but-serving (reads keep working at the last applied epoch)
// and tailing resumes on heal; a cursor that fell off the leader's retained
// journal chain (checkpoint pruning, sealed/poisoned segments rotated
// away) re-bootstraps the shard from the newest checkpoint without a
// restart. Router does bounded-staleness read routing against replica
// readiness reports.
//
// replic deliberately depends only on the durable/fragindex/crawl layers —
// the search and facade layers sit above it and consume its stats.
package replic

import (
	"context"
	"time"

	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/fragindex"
)

// Prefix is the replication surface's URL prefix on the leader.
const Prefix = "/v1/replication"

// manifestFormat versions the wire manifest.
const manifestFormat = 1

// ShardManifest is one shard's replication state in the manifest.
type ShardManifest struct {
	Shard        int                   `json:"shard"`
	DurableEpoch uint64                `json:"durable_epoch"`
	Snapshots    []durable.SegmentInfo `json:"snapshots"`
}

// Manifest describes what a leader replicates: the committed topology and
// spec (a replica must serve the identical shard routing) plus each
// shard's durable epoch and bootstrap-eligible snapshot generations.
type Manifest struct {
	Format    int             `json:"format"`
	Shards    int             `json:"shards"`
	SelAttrs  []string        `json:"sel_attrs"`
	EqAttrs   []string        `json:"eq_attrs"`
	RangeAttr string          `json:"range_attr,omitempty"`
	PerShard  []ShardManifest `json:"per_shard"`
}

// Source is what a leader serves replication from — implemented by
// *durable.Store. Every byte a replica receives originates behind the
// store's faultfs seam, so disk fault injection on the leader severs
// replication exactly like it degrades local durability.
type Source interface {
	NumShards() int
	Spec() fragindex.Spec
	DurableEpoch(shard int) (uint64, error)
	SnapshotGens(shard int) ([]durable.SegmentInfo, error)
	OpenSnapshot(shard int, epoch uint64) (faultfs.File, int64, error)
	TailFrom(ctx context.Context, shard int, from uint64, maxBytes int) (*durable.TailChunk, error)
	WaitForEpoch(ctx context.Context, shard int, after uint64, wait time.Duration) (uint64, error)
}

var _ Source = (*durable.Store)(nil)
