package dash

// Replicated serving: the public facade over internal/replic. A durable
// leader exposes its replication transport through ReplicationHandler
// (mounted under dash.ReplicationPrefix); OpenReplica builds a handle
// whose write path is replaced by a journal tail from a leader;
// WithReplicas gives a leader handle a bounded-staleness read router over
// a replica fleet. See ARCHITECTURE.md "Replicated serving" for the
// protocol and failure matrix.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/replic"
	"repro/internal/search"
)

// Replication re-exports.
type (
	// ReplicationStats is a replica's tail report (per-shard applied
	// epochs, lag, sever/reconnect counters) — EngineStats.Replication.
	ReplicationStats = replic.Stats
	// ReplicaRouterStats is a routing leader's per-replica placement
	// report — EngineStats.Replicas.
	ReplicaRouterStats = replic.RouterStats
)

// ReplicationPrefix is the URL prefix a leader's replication transport is
// mounted under.
const ReplicationPrefix = replic.Prefix

// DefaultStalenessBound is the default bounded-staleness contract, in
// epochs: a read with no explicit MinEpoch may be served by any replica
// whose applied epoch is within this many epochs of the leader's current
// epoch. Mutation epochs advance per change (not per publish), so the
// bound is in changes, not publishes.
const DefaultStalenessBound = 1024

var (
	// ErrReplicaReadOnly is returned by every Maintainer method of a
	// replica handle: writes belong to the leader. The /v1 layer maps it
	// to 421 so clients redirect their writes.
	ErrReplicaReadOnly = errors.New("dash: replica is read-only: send writes to the leader")
	// ErrReplicaBehind is returned by a replica's Search when the request
	// demands an epoch (Request.MinEpoch) the replica has not applied yet
	// and proxying is not available at this layer.
	ErrReplicaBehind = errors.New("dash: replica has not applied the requested epoch")
)

// ReplicationHandler serves the /v1/replication surface from the durable
// store; nil off a durable leader (replicas have no store of their own).
func (h *handle) ReplicationHandler() http.Handler {
	if h.store == nil {
		return nil
	}
	return replic.NewLeader(h.store)
}

// ReplicationStats returns a replica's tail report; nil on leaders.
func (h *handle) ReplicationStats() *ReplicationStats {
	if h.replica == nil {
		return nil
	}
	rs := h.replica.Stats()
	return &rs
}

// replicaConfig accumulates OpenReplica options.
type replicaConfig struct {
	opts      replic.Options
	staleness int64 // lag bound in epochs; < 0 disables lag-based proxying
}

// ReplicaOption configures OpenReplica.
type ReplicaOption func(*replicaConfig) error

// WithReplicaTransport substitutes the HTTP client carrying replication
// traffic — the chaos seam for severing and healing the stream in tests.
func WithReplicaTransport(hc *http.Client) ReplicaOption {
	return func(c *replicaConfig) error {
		c.opts.HTTPClient = hc
		return nil
	}
}

// WithReplicaPoll sets the tail long-poll duration (default 10s) and the
// initial reconnect backoff (default 100ms).
func WithReplicaPoll(wait, backoff time.Duration) ReplicaOption {
	return func(c *replicaConfig) error {
		if wait <= 0 || backoff <= 0 {
			return fmt.Errorf("dash: WithReplicaPoll(%v, %v): durations must be > 0", wait, backoff)
		}
		c.opts.PollWait = wait
		c.opts.Backoff = backoff
		return nil
	}
}

// WithReplicaStaleness sets the replica's lag bound in epochs (default
// DefaultStalenessBound): when the replica lags the leader by more than
// the bound, RouteSearch sends reads back to the leader. Negative
// disables lag-based forwarding — the replica serves however stale it is.
func WithReplicaStaleness(epochs int) ReplicaOption {
	return func(c *replicaConfig) error {
		c.staleness = int64(epochs)
		return nil
	}
}

// WithReplicaLog directs replication lifecycle events (sever, heal,
// re-bootstrap) to logf.
func WithReplicaLog(logf func(format string, args ...any)) ReplicaOption {
	return func(c *replicaConfig) error {
		c.opts.Logf = logf
		return nil
	}
}

// OpenReplica bootstraps a read replica of the leader at leaderURL: the
// handle restores every shard from the leader's newest snapshot
// generation, applies tailed journal records through the replay fold, and
// publishes via the epoch-swap path — searches are byte-identical to the
// leader at the same epoch. Its write path is absent (every Maintainer
// method returns ErrReplicaReadOnly); RouteSearch sends reads the replica
// cannot satisfy (MinEpoch ahead of the applied epoch, or lag past the
// staleness bound) back to the leader; Close stops the tail loops while
// the last applied state keeps serving. The ctx bounds the bootstrap
// (manifest + snapshot fetch + restore). app may be nil when URL
// formulation is not needed; it must match the leader's application for
// URLs to agree.
func OpenReplica(ctx context.Context, leaderURL string, app *Application, opts ...ReplicaOption) (Handle, error) {
	ctx = orBackground(ctx)
	cfg := replicaConfig{staleness: DefaultStalenessBound}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	rep, err := replic.Bootstrap(ctx, leaderURL, cfg.opts)
	if err != nil {
		return nil, err
	}
	return &handle{
		app:     app,
		live:    rep.Live(),
		engine:  search.NewSharded(rep.Live(), app),
		replica: rep,
		bound:   cfg.staleness,
	}, nil
}

// behind refuses, on a replica, a request whose MinEpoch it has not
// applied yet (the HTTP layer forwards such requests to the leader before
// they get here; direct library callers handle the error).
func (h *handle) behind(req Request) error {
	if h.replica == nil || req.MinEpoch == 0 {
		return nil
	}
	if applied := h.replica.MinApplied(); applied < req.MinEpoch {
		return fmt.Errorf("%w: want epoch %d, applied %d", ErrReplicaBehind, req.MinEpoch, applied)
	}
	return nil
}

// RouteSearch places one read. A replica sends it to its leader when the
// request's MinEpoch is ahead of the applied epoch or the replica lags
// past its staleness bound. A routing leader turns a request with no
// explicit MinEpoch into "at least the leader's highest shard epoch minus
// the bound" and picks a replica that has applied that much, falling back
// to local serving when none qualifies.
func (h *handle) RouteSearch(req Request) (string, bool) {
	switch {
	case h.replica != nil:
		if req.MinEpoch > 0 && h.replica.MinApplied() < req.MinEpoch {
			return h.replica.Leader(), true
		}
		if h.bound >= 0 && h.replica.MaxLag() > uint64(h.bound) {
			return h.replica.Leader(), true
		}
	case h.router != nil:
		minEpoch := req.MinEpoch
		if minEpoch == 0 {
			if h.bound < 0 {
				// Unbounded staleness: any healthy replica qualifies.
				return h.router.Pick(0)
			}
			var cur uint64
			for _, s := range h.engine.Pin() {
				cur = max(cur, s.Epoch())
			}
			if cur > uint64(h.bound) {
				minEpoch = cur - uint64(h.bound)
			}
		}
		return h.router.Pick(minEpoch)
	}
	return "", false
}
