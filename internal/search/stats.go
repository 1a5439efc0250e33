package search

import (
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/replic"
)

// TopologySharded is the topology Stats reports: every served index is a
// ShardedEngine scatter-gathering over S >= 1 shards.
const TopologySharded = "sharded"

// Stats is the serving-stats report — the Searcher contract's Stats()
// shape. Counters are sums across shards (Keywords counts posting lists,
// so a keyword spanning k shards contributes k); MaxEpoch is the highest
// per-shard epoch, since shards advance independently.
type Stats struct {
	Topology       string  `json:"topology"`
	Shards         int     `json:"shards"`
	Fragments      int     `json:"fragments"`
	Keywords       int     `json:"keywords"`
	TombstonedRefs int     `json:"tombstoned_refs"`
	AvgTerms       float64 `json:"avg_terms_per_fragment"`
	MaxEpoch       uint64  `json:"max_epoch"`
	DeltasApplied  uint64  `json:"deltas_applied"`
	Publishes      uint64  `json:"publishes"`
	// Queued counts deltas buffered by the serving handle's Queue and
	// awaiting its Flush; the engine itself holds no queue.
	Queued      int    `json:"queued_deltas"`
	Inserted    uint64 `json:"fragments_inserted"`
	Removed     uint64 `json:"fragments_removed"`
	Updated     uint64 `json:"fragments_updated"`
	Compactions uint64 `json:"compactions"`
	// PerShard carries each shard's own serving stats (epoch, publish
	// counters) in shard order.
	PerShard []fragindex.LiveStats `json:"per_shard,omitempty"`
	// Cache and Admission report the serving-layer result cache and
	// admission controller when the handle was opened with them
	// (dash.WithResultCache / WithAdmissionControl); nil otherwise.
	Cache     *CacheStats     `json:"cache,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Durability reports the durable store's journal/checkpoint counters
	// and health state for handles opened with dash.WithDataDir; nil for
	// in-memory handles.
	Durability *durable.Stats `json:"durability,omitempty"`
	// Replication reports a replica handle's tail state (applied epochs,
	// lag, sever/reconnect counters); nil on leaders and standalone
	// handles.
	Replication *replic.Stats `json:"replication,omitempty"`
	// Replicas reports a routing leader's per-replica placement state
	// (dash.WithReplicas); nil elsewhere.
	Replicas *replic.RouterStats `json:"replicas,omitempty"`
}

// Stats aggregates the per-shard serving statistics.
func (se *ShardedEngine) Stats() Stats {
	ss := se.live.Stats()
	return Stats{
		Topology:       TopologySharded,
		Shards:         ss.Shards,
		Fragments:      ss.Fragments,
		Keywords:       ss.KeywordLists,
		TombstonedRefs: ss.TombstonedRefs,
		AvgTerms:       ss.AvgTerms,
		MaxEpoch:       ss.MaxEpoch,
		DeltasApplied:  ss.DeltasApplied,
		Publishes:      ss.Publishes,
		Inserted:       ss.Inserted,
		Removed:        ss.Removed,
		Updated:        ss.Updated,
		Compactions:    ss.Compactions,
		PerShard:       ss.PerShard,
	}
}
