package search

// Epoch-keyed result caching (the Mitos-style results cache in front of
// the query evaluator). Heavy traffic is skewed: the same hot queries
// arrive over and over while the snapshot epoch rarely moves, yet every
// one re-runs the full seeding + expansion loop. ResultCache memoizes
// finished result lists keyed by (canonical Request, pinned epoch vector):
//
//   - The request half of the key is NormalizeRequest's canonical form, so
//     "Coffee burger" and "burger coffee" share one entry.
//   - The epoch half is the per-shard epoch vector of the shards the query
//     actually touches, captured from the pinned snapshot set at lookup
//     time. Epoch-swap publishes make invalidation free: a publish bumps
//     the shard's epoch, every later lookup computes a key containing the
//     new epoch, and the stale entry simply can never be hit again. A
//     publish that makes a previously irrelevant shard relevant (a delta
//     inserting a queried keyword there) changes the *active set* the
//     lookup computes, which changes the key the same way — entries are
//     never explicitly invalidated, and no lookup can observe a
//     pre-publish result under a post-publish epoch.
//   - Stale entries are reclaimed by capacity eviction (sharded bounded
//     LRU) plus an explicit post-publish Sweep that drops every entry
//     pinning a superseded epoch.
//
// Singleflight rides on top: N concurrent identical misses run the
// expansion loop once and share the one result (Do), so a thundering herd
// on a hot query costs one search, not N.
//
// Cached result slices are shared between callers and MUST be treated as
// immutable — exactly like the snapshots they were computed from.

import (
	"context"
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fragindex"
)

// NormalizeRequest returns req in its canonical form: keywords
// lower-cased, field-split, deduplicated, and sorted (the engine's own
// normalization — see normalizeKeywords), and any negative CandidateLimit
// folded to 0 (the engine treats every non-positive limit as "read full
// posting lists", so the two spellings are one request). The engine
// normalizes keywords identically on every search, so a normalized
// request returns byte-identical results to its raw form — which is what
// lets the result cache key equal-meaning requests to one entry.
func NormalizeRequest(req Request) Request {
	req.Keywords = normalizeKeywords(make([]string, 0, len(req.Keywords)), req.Keywords)
	if req.CandidateLimit < 0 {
		req.CandidateLimit = 0
	}
	// MinEpoch is a routing directive, not query semantics: by the time a
	// request reaches an engine the placement decision has been made, and
	// the cache key's epoch pins already guarantee a hit is at least as
	// fresh as the view that admitted the request.
	req.MinEpoch = 0
	return req
}

// EpochPin records that a query's pinned view included one shard at one
// epoch. The pin vector of a request is the cache key's epoch half and
// what Sweep checks entries against.
type EpochPin struct {
	Shard int
	Epoch uint64
}

// CacheKey builds the cache key for a normalized request and its pinned
// epoch vector. req must already be in NormalizeRequest's canonical form;
// pins must be in ascending shard order (PinEpochs produces them so).
// Distinct requests, and the same request over different pinned epochs,
// map to distinct keys.
func CacheKey(req Request, pins []EpochPin) string {
	var b strings.Builder
	n := 0
	for _, w := range req.Keywords {
		n += len(w) + 1
	}
	b.Grow(n + 16*len(pins) + 32)
	for _, w := range req.Keywords {
		b.WriteString(w)
		b.WriteByte(0)
	}
	b.WriteByte(1)
	b.WriteString(strconv.Itoa(req.K))
	b.WriteByte(1)
	b.WriteString(strconv.Itoa(req.SizeThreshold))
	b.WriteByte(1)
	limit := req.CandidateLimit
	if limit < 0 {
		limit = 0
	}
	b.WriteString(strconv.Itoa(limit))
	b.WriteByte(1)
	if req.AllowOverlap {
		b.WriteByte('O')
	}
	if req.RequireAll {
		b.WriteByte('A')
	}
	b.WriteByte(1)
	for _, p := range pins {
		b.WriteString(strconv.Itoa(p.Shard))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(p.Epoch, 10))
		b.WriteByte(',')
	}
	return b.String()
}

// CacheOutcome classifies how one Do call was answered.
type CacheOutcome int

const (
	// CacheMiss: this call ran the search itself.
	CacheMiss CacheOutcome = iota
	// CacheHit: answered from a stored entry, no search ran.
	CacheHit
	// CacheCollapsed: answered by sharing a concurrent identical call's
	// in-flight search (singleflight) — a hit at the HTTP surface, counted
	// separately so the collapse rate is observable.
	CacheCollapsed
)

// CacheStats is the counter snapshot a ResultCache reports (surfaced
// through the unified EngineStats and /v1/admin/stats).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"`
	Evictions uint64 `json:"evictions"`
	Swept     uint64 `json:"swept"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity_bytes"`
}

// cacheEntry is one stored result list on its shard's LRU list.
type cacheEntry struct {
	key        string
	res        []Result
	pins       []EpochPin
	cost       int64
	prev, next *cacheEntry // LRU links; head = most recently used
}

// cacheShard is one lock domain of the cache: a map plus an intrusive
// LRU list, bounded by its slice of the byte budget.
type cacheShard struct {
	mu         sync.Mutex
	max        int64
	bytes      int64
	entries    map[string]*cacheEntry
	head, tail *cacheEntry
}

// numCacheShards spreads hot-key lock traffic; 16 keeps contention
// negligible at any realistic core count while the per-shard byte budget
// stays coarse enough to hold whole result lists.
const numCacheShards = 16

// ResultCache is a sharded, bounded, epoch-keyed LRU result cache with a
// singleflight layer (Do). Safe for concurrent use.
type ResultCache struct {
	shards   [numCacheShards]cacheShard
	seed     maphash.Seed
	capacity int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	collapsed atomic.Uint64
	evictions atomic.Uint64
	swept     atomic.Uint64

	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-flight search other identical requests wait on.
type flightCall struct {
	done chan struct{}
	res  []Result
	err  error
}

// NewResultCache creates a cache bounded to roughly maxBytes of stored
// results (estimated — see entryCost). maxBytes <= 0 returns nil, the
// "no cache" sentinel every method tolerates.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		return nil
	}
	c := &ResultCache{
		seed:     maphash.MakeSeed(),
		capacity: maxBytes,
		flight:   make(map[string]*flightCall),
	}
	per := maxBytes / numCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].max = per
		c.shards[i].entries = make(map[string]*cacheEntry)
	}
	return c
}

func (c *ResultCache) shardFor(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%numCacheShards]
}

// Get returns the entry stored under key, if any, marking it most
// recently used. The returned slice is shared: callers must not mutate it.
func (c *ResultCache) Get(key string) ([]Result, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.moveToFront(e)
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return e.res, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores res under key, evicting least-recently-used entries to stay
// within the shard's byte budget. An entry larger than the whole budget
// is simply not stored.
func (c *ResultCache) Put(key string, pins []EpochPin, res []Result) {
	cost := entryCost(key, res)
	sh := c.shardFor(key)
	if cost > sh.max {
		return
	}
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		sh.remove(old)
	}
	e := &cacheEntry{key: key, res: res, pins: pins, cost: cost}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += cost
	evicted := 0
	for sh.bytes > sh.max && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.remove(victim)
		delete(sh.entries, victim.key)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Do answers one request through the cache: a stored entry is a hit; a
// miss runs fn exactly once across all concurrent identical misses
// (singleflight) and stores a successful result under key. fn runs with
// the caller's ctx; a waiter whose own ctx expires stops waiting with
// ctx.Err(). A leader failure caused by the leader's *own* context does
// not poison waiters — they retry (and typically become the next leader)
// because their contexts may still be live. The returned slice is shared
// and must not be mutated.
func (c *ResultCache) Do(ctx context.Context, key string, pins []EpochPin, fn func(context.Context) ([]Result, error)) ([]Result, CacheOutcome, error) {
	for {
		if res, ok := c.Get(key); ok {
			return res, CacheHit, nil
		}
		c.flightMu.Lock()
		if fc, ok := c.flight[key]; ok {
			c.flightMu.Unlock()
			select {
			case <-fc.done:
			case <-ctx.Done():
				return nil, CacheMiss, ctx.Err()
			}
			if fc.err == nil {
				c.collapsed.Add(1)
				return fc.res, CacheCollapsed, nil
			}
			if fc.err == context.Canceled || fc.err == context.DeadlineExceeded {
				// The leader's own deadline or client fired, not ours:
				// retry under our (still live) context.
				if ctx.Err() != nil {
					return nil, CacheMiss, ctx.Err()
				}
				continue
			}
			// A genuine engine failure is the same for every caller of
			// this key (validation, index invariant): share it.
			return nil, CacheMiss, fc.err
		}
		fc := &flightCall{done: make(chan struct{})}
		c.flight[key] = fc
		c.flightMu.Unlock()

		fc.res, fc.err = fn(ctx)
		c.flightMu.Lock()
		delete(c.flight, key)
		c.flightMu.Unlock()
		if fc.err == nil {
			c.Put(key, pins, fc.res)
		}
		close(fc.done)
		return fc.res, CacheMiss, fc.err
	}
}

// Sweep removes every entry pinning a superseded epoch: current[i] is
// shard i's serving epoch, and an entry survives only if each of its pins
// still matches. Run after a publish — such entries' keys can never be
// produced by a lookup again, so this is pure capacity hygiene, not a
// correctness requirement. Returns how many entries were dropped.
func (c *ResultCache) Sweep(current []uint64) int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			for _, p := range e.pins {
				if p.Shard < len(current) && p.Epoch != current[p.Shard] {
					sh.remove(e)
					delete(sh.entries, e.key)
					total++
					break
				}
			}
		}
		sh.mu.Unlock()
	}
	if total > 0 {
		c.swept.Add(uint64(total))
	}
	return total
}

// Stats snapshots the cache's counters and occupancy.
func (c *ResultCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		Swept:     c.swept.Load(),
		Capacity:  c.capacity,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// moveToFront, pushFront, remove: the intrusive LRU list. Callers hold
// sh.mu.
func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove unlinks e and releases its cost (the map delete is the
// caller's, which knows the key).
func (sh *cacheShard) remove(e *cacheEntry) {
	sh.unlink(e)
	sh.bytes -= e.cost
}

// entryCost estimates an entry's resident bytes: the key, the fixed
// Result struct, its strings, the fragment slice, and a flat allowance
// per equality value. An estimate is all the budget needs — the point is
// that N cached pages cost O(N × page), not that the sum matches the
// allocator byte for byte.
func entryCost(key string, res []Result) int64 {
	cost := int64(len(key)) + 64
	for i := range res {
		r := &res[i]
		cost += 160 // struct, slice headers, map header
		cost += int64(len(r.URL) + len(r.QueryString) + len(r.EqKey))
		cost += int64(4 * len(r.Fragments))
		cost += int64(48 * len(r.EqValues))
	}
	return cost
}

// PinEpochs computes the epoch half of a request's cache key from its
// pinned snapshot set: the pin vector holds, in ascending shard order,
// every shard where at least one queried keyword occurs (DF > 0) — the
// shards whose content the result can depend on. keywords must be the
// normalized set the search will run with. Recomputing the active set at
// every lookup is what makes sparse pinning sound: a publish that makes
// a previously irrelevant shard relevant changes the set this computes,
// hence the key. With a single snapshot the vector is always
// [{0, epoch}] — the DF probe buys nothing when there is nothing to
// skip. dst is reused (append semantics) so steady-state lookups don't
// allocate.
func PinEpochs(dst []EpochPin, snaps []*fragindex.Snapshot, keywords []string) []EpochPin {
	dst = dst[:0]
	if len(snaps) == 1 {
		return append(dst, EpochPin{Shard: 0, Epoch: snaps[0].Epoch()})
	}
	for si, snap := range snaps {
		for _, w := range keywords {
			if snap.DF(w) > 0 {
				dst = append(dst, EpochPin{Shard: si, Epoch: snap.Epoch()})
				break
			}
		}
	}
	return dst
}
