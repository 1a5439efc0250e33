package main

import (
	"context"
	"fmt"
	"time"

	dash "repro"
)

// reference is an in-process dash.Open handle over the same corpus the
// servers build. Server answers are compared against it: a faster wrong
// answer counts as a failure.
type reference struct {
	h       dash.Handle
	memo    map[string][]page // answers at the current state
	applied int               // writes folded in so far
}

func newReference(ctx context.Context, c *corpus, shards int) (*reference, error) {
	idx, err := c.index()
	if err != nil {
		return nil, err
	}
	h, err := dash.Open(ctx, idx, c.app, dash.WithShards(shards))
	if err != nil {
		return nil, fmt.Errorf("reference handle: %w", err)
	}
	return &reference{h: h, memo: map[string][]page{}}, nil
}

func (ref *reference) answer(ctx context.Context, r *readReq) ([]page, error) {
	if p, ok := ref.memo[r.query]; ok {
		return p, nil
	}
	res, err := ref.h.Search(ctx, dash.Request{Keywords: r.kws, K: r.k, SizeThreshold: r.s})
	if err != nil {
		return nil, fmt.Errorf("reference search %q: %w", r.query, err)
	}
	pages := make([]page, len(res))
	for i, x := range res {
		pages[i] = page{URL: x.URL, Query: x.QueryString, Score: x.Score, Size: x.Size}
	}
	ref.memo[r.query] = pages
	return pages, nil
}

// apply folds acknowledged writes into the reference, in sequence order.
func (ref *reference) apply(ctx context.Context, ws []*writeReq) error {
	for _, w := range ws[ref.applied:] {
		if _, err := ref.h.Apply(ctx, w.delta); err != nil {
			return fmt.Errorf("reference apply #%d: %w", w.seq, err)
		}
	}
	if len(ws) > ref.applied {
		ref.applied = len(ws)
		ref.memo = map[string][]page{}
	}
	return nil
}

// check compares a server answer with the reference's.
func (ref *reference) check(ctx context.Context, r *readReq, got []page) error {
	want, err := ref.answer(ctx, r)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("search %q: %d results, reference has %d", r.query, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("search %q: result %d is %+v, reference has %+v", r.query, i, got[i], want[i])
		}
	}
	return nil
}

// verifyServers sends every request in reqs to both servers (the leader
// answering locally) and checks each answer against the reference.
func (r *runner) verifyServers(ctx context.Context, t *topology, reqs []*readReq) {
	for _, q := range reqs {
		for _, base := range []string{t.leader.url, t.replica.url} {
			out := r.cl.search(ctx, base, q, true)
			if out.err == nil {
				out.err = r.ref.check(ctx, q, out.results)
			}
			r.count(out.err)
		}
	}
}

// converge waits until the replica has applied every shard's durable
// epoch on the leader.
func (r *runner) converge(ctx context.Context, t *topology) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ls leaderStats
		var rs replicaStats
		if err := getJSON(ctx, r.cl.hc, t.leader.url+"/v1/admin/stats", &ls); err != nil {
			return err
		}
		if err := getJSON(ctx, r.cl.hc, t.replica.url+"/v1/admin/stats", &rs); err != nil {
			return err
		}
		if lag, ok := lagOf(ls, rs); ok && lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not converge on the leader's durable epochs within 10s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leaderStats and replicaStats are the parts of /v1/admin/stats the
// benchmark reads.
type leaderStats struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Swept     uint64 `json:"swept"`
	} `json:"cache"`
	Durability struct {
		PerShard []struct {
			DurableEpoch uint64 `json:"durable_epoch"`
		} `json:"per_shard"`
	} `json:"durability"`
	Replicas *struct {
		Routed   uint64 `json:"routed_to_replicas"`
		Fallback uint64 `json:"fallback_to_leader"`
	} `json:"replicas"`
}

type replicaStats struct {
	Replication struct {
		PerShard []struct {
			AppliedEpoch uint64 `json:"applied_epoch"`
		} `json:"per_shard"`
	} `json:"replication"`
}

// lagOf returns the largest per-shard gap between the leader's durable
// epoch and the replica's applied epoch.
func lagOf(ls leaderStats, rs replicaStats) (uint64, bool) {
	l, p := ls.Durability.PerShard, rs.Replication.PerShard
	if len(l) == 0 || len(l) != len(p) {
		return 0, false
	}
	var max uint64
	for i := range l {
		if l[i].DurableEpoch > p[i].AppliedEpoch && l[i].DurableEpoch-p[i].AppliedEpoch > max {
			max = l[i].DurableEpoch - p[i].AppliedEpoch
		}
	}
	return max, true
}
