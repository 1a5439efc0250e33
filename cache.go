package dash

// The handle's search path, with its two optional layers: the result
// cache (WithResultCache) and admission control (WithAdmissionControl).
// The cache memoizes finished result lists keyed by (canonical request,
// pinned epoch vector) — epoch-swap publishes make invalidation free, and
// the key pins only the shards a query actually touches, so a publish on
// one shard leaves hot entries for the others valid. Singleflight collapses
// concurrent identical misses into one search; admission control sheds
// searches that cannot finish inside their deadline (or exceed the
// in-flight cap) with a fast ErrOverloaded instead of queueing them to
// time out. See internal/search/cache.go and admission.go for the
// mechanisms, ARCHITECTURE.md "Serving under load" for the policy.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fragindex"
	"repro/internal/search"
)

// Serving-layer re-exports.
type (
	// CacheStats reports the result cache's counters (EngineStats.Cache).
	CacheStats = search.CacheStats
	// AdmissionOptions configures WithAdmissionControl.
	AdmissionOptions = search.AdmissionOptions
	// AdmissionStats reports the admission controller's counters
	// (EngineStats.Admission).
	AdmissionStats = search.AdmissionStats
)

// ErrOverloaded reports that admission control shed the search; the
// caller should retry later. The /v1 HTTP layer maps it to 503 with a
// Retry-After header.
var ErrOverloaded = search.ErrOverloaded

// CacheStatus classifies how a search was answered, for surfaces (like
// the /v1 X-Cache header) that report cache effectiveness per request.
type CacheStatus string

const (
	// CacheHit: answered from the result cache (or by sharing a
	// concurrent identical search) — no expansion loop ran for this call.
	CacheHit CacheStatus = "hit"
	// CacheMiss: this call ran the search and (on success) populated the
	// cache.
	CacheMiss CacheStatus = "miss"
	// CacheBypass: no result cache is configured on the handle, or the
	// request was refused or shed before reaching it.
	CacheBypass CacheStatus = "bypass"
)

// CachedSearcher is the status-reporting search surface every Handle
// carries. Plain Search/SearchBatch remain the contract; these variants
// additionally report how each call was answered (CacheBypass throughout
// without WithResultCache).
type CachedSearcher interface {
	// SearchStatus is Search plus the cache outcome.
	SearchStatus(ctx context.Context, req Request) ([]Result, CacheStatus, error)
	// SearchBatchStatus is SearchBatch plus the batch-aggregate outcome:
	// CacheHit only when every request was answered from the cache,
	// otherwise CacheMiss (CacheBypass without a cache, or when the whole
	// batch was shed).
	SearchBatchStatus(ctx context.Context, reqs []Request) ([]BatchResult, CacheStatus)
}

// WithResultCache bounds an epoch-keyed result cache of roughly maxBytes
// of stored results in front of the topology's search path. Cached
// responses are byte-identical to uncached ones (the key pins the exact
// snapshot epochs the result was computed from), a publish is never
// served stale results (a new epoch is a new key), and N concurrent
// identical misses run one search (singleflight). SearchStatus and
// SearchBatchStatus report hit or miss per call.
func WithResultCache(maxBytes int64) Option {
	return func(c *openConfig) error {
		if maxBytes <= 0 {
			return fmt.Errorf("dash: WithResultCache(%d): byte budget must be > 0", maxBytes)
		}
		c.cacheBytes = maxBytes
		return nil
	}
}

// WithAdmissionControl sheds searches the engine cannot serve usefully:
// requests whose remaining deadline budget is below the estimated cost of
// one uncached search, and requests beyond opts.MaxInFlight concurrently
// admitted ones, fail fast with ErrOverloaded instead of queueing to time
// out. Pairs with WithResultCache — cache hits are answered before
// budget shedding would matter, and only uncached searches feed the cost
// estimator.
func WithAdmissionControl(opts AdmissionOptions) Option {
	return func(c *openConfig) error {
		if opts.MaxInFlight < 0 {
			return fmt.Errorf("dash: WithAdmissionControl: MaxInFlight %d must be >= 0", opts.MaxInFlight)
		}
		if opts.MinBudget < 0 {
			return fmt.Errorf("dash: WithAdmissionControl: MinBudget %v must be >= 0", opts.MinBudget)
		}
		c.admission = &opts
		return nil
	}
}

// Search answers through the search path (see SearchStatus).
func (h *handle) Search(ctx context.Context, req Request) ([]Result, error) {
	res, _, err := h.SearchStatus(ctx, req)
	return res, err
}

// SearchStatus answers one top-k query, reporting how: a replica first
// refuses a MinEpoch it has not applied, then admission control, the
// result cache, one pin of every shard, and the scatter-gather run. The
// returned slice may be shared with other cache readers: treat it as
// immutable.
func (h *handle) SearchStatus(ctx context.Context, req Request) ([]Result, CacheStatus, error) {
	ctx = orBackground(ctx)
	if err := h.behind(req); err != nil {
		return nil, CacheBypass, err
	}
	release, err := h.admit(ctx)
	if err != nil {
		return nil, CacheBypass, err
	}
	defer release()
	return h.answer(ctx, h.engine.Pin(), req)
}

// answer runs one admitted request against a pinned view — through the
// result cache when there is one, reporting hit or miss, and straight to
// the engine (CacheBypass) when there is not.
func (h *handle) answer(ctx context.Context, snaps []*fragindex.Snapshot, req Request) ([]Result, CacheStatus, error) {
	if h.cache == nil {
		res, err := h.run(ctx, snaps, req)
		return res, CacheBypass, err
	}
	req = search.NormalizeRequest(req)
	pins := search.PinEpochs(nil, snaps, req.Keywords)
	res, outcome, err := h.cache.Do(ctx, search.CacheKey(req, pins), pins, func(ctx context.Context) ([]Result, error) {
		return h.run(ctx, snaps, req)
	})
	if err != nil || outcome == search.CacheMiss {
		return res, CacheMiss, err
	}
	return res, CacheHit, nil
}

// admit takes an admission slot for one search or batch; without
// admission control every call is admitted.
func (h *handle) admit(ctx context.Context) (release func(), err error) {
	if h.ac == nil {
		return func() {}, nil
	}
	deadline, ok := ctx.Deadline()
	return h.ac.Admit(deadline, ok)
}

// run answers one request against a pinned view and, under admission
// control, feeds its wall time to the cost estimator.
func (h *handle) run(ctx context.Context, snaps []*fragindex.Snapshot, req Request) ([]Result, error) {
	start := time.Now()
	res, err := h.engine.SearchPinned(ctx, snaps, req)
	if err == nil && h.ac != nil {
		h.ac.Observe(time.Since(start))
	}
	return res, err
}

// SearchBatch answers a batch (see SearchBatchStatus).
func (h *handle) SearchBatch(ctx context.Context, reqs []Request) []BatchResult {
	out, _ := h.SearchBatchStatus(ctx, reqs)
	return out
}

// SearchBatchStatus evaluates a batch over one pinned view (every request
// observes the same index state, the SearchBatch contract) on a
// GOMAXPROCS-bounded worker pool; each request takes the single-search
// path from the replica's MinEpoch check on. Admission is per batch — one
// admitted batch holds one in-flight slot, and a shed batch fails every
// slot with ErrOverloaded. The status is CacheHit only when every request
// was answered from the cache; a slot that ran a search, was refused, or
// was abandoned by a cancellation makes it CacheMiss.
func (h *handle) SearchBatchStatus(ctx context.Context, reqs []Request) ([]BatchResult, CacheStatus) {
	ctx = orBackground(ctx)
	out := make([]BatchResult, len(reqs))
	if len(reqs) > 0 {
		release, err := h.admit(ctx)
		if err != nil {
			for i := range out {
				out[i].Err = err
			}
			return out, CacheBypass
		}
		defer release()
	}
	snaps := h.engine.Pin()
	var hits atomic.Int64
	search.RunPool(ctx, len(reqs), runtime.GOMAXPROCS(0), func(i int, err error) {
		if err != nil {
			out[i].Err = err // abandoned: queued behind the cancellation
			return
		}
		if err := h.behind(reqs[i]); err != nil {
			out[i].Err = err
			return
		}
		var st CacheStatus
		out[i].Results, st, out[i].Err = h.answer(ctx, snaps, reqs[i])
		if st == CacheHit {
			hits.Add(1)
		}
	})
	switch {
	case h.cache == nil:
		return out, CacheBypass
	case hits.Load() == int64(len(reqs)):
		return out, CacheHit
	}
	return out, CacheMiss
}

// sweep drops cache entries pinning epochs the current read view has
// superseded. Run after every maintenance call; correctness never depends
// on it (a superseded epoch can never reappear in a lookup key), it just
// returns the capacity early.
func (h *handle) sweep() {
	if h.cache == nil {
		return
	}
	snaps := h.engine.Pin()
	epochs := make([]uint64, len(snaps))
	for i, s := range snaps {
		epochs[i] = s.Epoch()
	}
	h.cache.Sweep(epochs)
}
