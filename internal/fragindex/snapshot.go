package fragindex

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/fragment"
	"repro/internal/relation"
)

// Posting lists are grouped into a fixed number of hash shards. The shard is
// the copy-on-write unit between snapshots: publishing a new snapshot clones
// only the shard maps (and within them, only the posting lists) touched by
// the delta, so untouched shards — the overwhelming majority of index
// memory — are shared by pointer across every live snapshot. Shard counts
// trade the fixed per-publish table copy (numShards+numGroupShards
// pointers, a few KB) against the per-touched-shard map-clone cost
// (entries/numShards); the values below keep both in the microseconds even
// at millions of keywords/groups.
const numShards = 256 // power of two; shardIndex masks with numShards-1

// Equality groups hash into their own shard table so a delta that touches
// one group clones one small map instead of the whole group directory.
const numGroupShards = 512 // power of two

// shard is one hash bucket of the inverted fragment index.
type shard struct {
	lists map[string]*postingList
}

// fnv32 hashes a string with FNV-1a.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// shardIndex hashes a keyword to its posting shard.
func shardIndex(kw string) uint32 { return fnv32(kw) & (numShards - 1) }

// groupShardIndex hashes an equality key to its group shard.
func groupShardIndex(key string) uint32 { return fnv32(key) & (numGroupShards - 1) }

func newShards() []*shard {
	out := make([]*shard, numShards)
	for i := range out {
		out[i] = &shard{lists: make(map[string]*postingList)}
	}
	return out
}

// groupShard is one hash bucket of the equality-group directory.
type groupShard struct {
	groups map[string]*group
}

func newGroupShards() []*groupShard {
	out := make([]*groupShard, numGroupShards)
	for i := range out {
		out[i] = &groupShard{groups: make(map[string]*group)}
	}
	return out
}

// Fragment metadata is stored in fixed-size chunks of chunkSize refs behind
// a chunk-pointer table. The chunk is the metadata copy-on-write unit:
// publishing a new snapshot copies the chunk table (O(refs/chunkSize)
// pointers) plus only the chunks a delta dirtied, so a single-fragment
// change on a million-ref index no longer pays an O(refs) metadata copy per
// publish. The size trades the two: a 256-ref chunk clones in ~20 KB (a
// 4096-ref chunk was ~320 KB, which dominated a one-fragment update), and
// the table stays ~4K pointers at a million refs.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // refs per metadata chunk
	chunkMask  = chunkSize - 1
)

// metaChunk holds chunkSize refs' worth of the four per-ref metadata
// arrays, in parallel: the fragment summary, the builder-side forward
// keyword map, the equality-group pointer, and the position within the
// group (-1 when dead).
type metaChunk struct {
	frags    []Meta
	kwOf     [][]string
	groupOf  []*group
	memberAt []int
}

// clone returns a deep copy of the chunk's arrays (slice contents such as
// keyword strings stay shared — they are immutable per ref).
func (c *metaChunk) clone() *metaChunk {
	return &metaChunk{
		frags:    append([]Meta(nil), c.frags...),
		kwOf:     append([][]string(nil), c.kwOf...),
		groupOf:  append([]*group(nil), c.groupOf...),
		memberAt: append([]int(nil), c.memberAt...),
	}
}

// Snapshot is one immutable version of the fragment index: the inverted
// fragment index (sharded posting lists), the fragment graph, and the O(1)
// statistics counters, all frozen at a mutation epoch.
//
// A Snapshot obtained from LiveIndex.Snapshot (or Index.Freeze) never
// changes: any number of goroutines may run the entire query read path
// against it lock-free, concurrently with a writer publishing later
// snapshots. The only internally mutable field is the lazily built sorted
// keyword cache, which is swapped through an atomic pointer and is
// idempotent to race on.
//
// Every per-ref structure is behind a copy-on-write table so publishing a
// new version costs only what the delta touched: fragment metadata lives in
// fixed-size chunks behind a chunk-pointer table (the chunk is the metadata
// CoW unit — see metaChunk), posting lists hash into shards, and equality
// groups hash into their own shard table. Untouched chunks, shards, lists,
// and groups are shared by pointer across every live snapshot.
//
// A Snapshot obtained from Index.Snapshot on an index that has never been
// frozen is a live view, not an isolated version: it shares the index's
// storage and observes its mutations, under the index's exclusive-mutation
// contract.
type Snapshot struct {
	spec     Spec
	eqIdx    []int
	rangeIdx int

	numRefs int          // ref-space size; chunk i holds refs [i<<chunkShift, ...)
	chunks  []*metaChunk // per-ref metadata behind the chunk table
	shards  []*shard     // inverted index posting shards
	gshards []*groupShard

	// Live counters: maintained on insert/remove so the Table IV stats
	// (NumFragments, AvgTermsPerFragment, NumKeywords) are O(1).
	liveFrags int
	liveTerms int64
	liveKws   int

	// epoch counts mutations; kwCache holds the sorted Keywords() slice
	// built at a given epoch (atomic so concurrent readers may refresh it).
	epoch   uint64
	kwCache atomic.Pointer[kwCache]
}

// clone returns a builder-writable copy sharing every chunk, posting shard,
// and group shard with the receiver. Only the top-level pointer tables are
// copied — O(refs/chunkSize) for the chunk table plus two fixed-size shard
// tables — so publish cost is proportional to what the delta then dirties,
// not to index size. The payloads (chunks, posting lists, groups) are
// cloned lazily, one by one, only where mutations touch them.
func (s *Snapshot) clone() *Snapshot {
	return &Snapshot{
		spec:      s.spec,
		eqIdx:     s.eqIdx,
		rangeIdx:  s.rangeIdx,
		numRefs:   s.numRefs,
		chunks:    append([]*metaChunk(nil), s.chunks...),
		shards:    append([]*shard(nil), s.shards...),
		gshards:   append([]*groupShard(nil), s.gshards...),
		liveFrags: s.liveFrags,
		liveTerms: s.liveTerms,
		liveKws:   s.liveKws,
		epoch:     s.epoch,
	}
}

// metaAt returns a pointer to ref's summary without bounds checking.
func (s *Snapshot) metaAt(ref FragRef) *Meta {
	return &s.chunks[ref>>chunkShift].frags[ref&chunkMask]
}

// aliveAt reports ref's liveness without bounds checking.
func (s *Snapshot) aliveAt(ref FragRef) bool {
	return s.chunks[ref>>chunkShift].frags[ref&chunkMask].Alive
}

// kwsAt returns ref's forward keyword list without bounds checking.
func (s *Snapshot) kwsAt(ref FragRef) []string {
	return s.chunks[ref>>chunkShift].kwOf[ref&chunkMask]
}

// groupAt returns ref's equality group without bounds checking.
func (s *Snapshot) groupAt(ref FragRef) *group {
	return s.chunks[ref>>chunkShift].groupOf[ref&chunkMask]
}

// posAt returns ref's position within its group (-1 when dead) without
// bounds checking.
func (s *Snapshot) posAt(ref FragRef) int {
	return s.chunks[ref>>chunkShift].memberAt[ref&chunkMask]
}

// Snapshot returns the receiver, making *Snapshot a search.Source: an
// engine constructed over a snapshot is permanently pinned to it.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// list returns the keyword's posting list, nil when absent.
func (s *Snapshot) list(kw string) *postingList {
	return s.shards[shardIndex(kw)].lists[kw]
}

// eachList visits every posting list (any order).
func (s *Snapshot) eachList(f func(kw string, pl *postingList)) {
	for _, sh := range s.shards {
		for kw, pl := range sh.lists {
			f(kw, pl)
		}
	}
}

// eachGroup visits every equality group (any order), including groups whose
// member path is currently empty.
func (s *Snapshot) eachGroup(f func(g *group)) {
	for _, gs := range s.gshards {
		for _, g := range gs.groups {
			f(g)
		}
	}
}

// Spec returns the snapshot's selection-attribute structure.
func (s *Snapshot) Spec() Spec { return s.spec }

// Epoch returns the mutation epoch the snapshot was frozen at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFragments returns the number of live fragments (O(1)).
func (s *Snapshot) NumFragments() int { return s.liveFrags }

// NumKeywords returns the number of distinct indexed keywords with at
// least one live posting (O(1)).
func (s *Snapshot) NumKeywords() int { return s.liveKws }

// AvgTermsPerFragment reports the average keyword count over live fragments
// (Table IV's third column). O(1).
func (s *Snapshot) AvgTermsPerFragment() float64 {
	if s.liveFrags == 0 {
		return 0
	}
	return float64(s.liveTerms) / float64(s.liveFrags)
}

// Meta returns a fragment's summary.
func (s *Snapshot) Meta(ref FragRef) (Meta, error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return Meta{}, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	return *s.metaAt(ref), nil
}

// NumRefs returns the size of the ref space (live fragments plus
// tombstones): every FragRef handed out by this snapshot is in [0, NumRefs).
// Callers that validate refs once against it may then use the unchecked
// accessors TermsOf and AliveRef on the hot path.
func (s *Snapshot) NumRefs() int { return s.numRefs }

// TermsOf returns a fragment's total keyword count without bounds
// checking. The caller must have validated ref (see NumRefs).
func (s *Snapshot) TermsOf(ref FragRef) int64 {
	return s.chunks[ref>>chunkShift].frags[ref&chunkMask].Terms
}

// AliveRef reports whether ref is within range and not tombstoned.
func (s *Snapshot) AliveRef(ref FragRef) bool {
	return int(ref) >= 0 && int(ref) < s.numRefs && s.aliveAt(ref)
}

// Lookup resolves a fragment identifier to its ref: the identifier's
// equality values locate the group, and a binary search over the group's
// range-ordered member path locates the fragment. Only live fragments
// resolve. (There is deliberately no whole-index key map: it would have to
// be copied on every publish, defeating the chunked metadata CoW.)
func (s *Snapshot) Lookup(id fragment.ID) (FragRef, bool) {
	if len(id) != len(s.spec.SelAttrs) {
		return 0, false
	}
	g := s.lookupGroup(id)
	if g == nil {
		return 0, false
	}
	if s.rangeIdx < 0 {
		for _, ref := range g.members {
			if s.metaAt(ref).ID.Compare(id) == 0 {
				return ref, true
			}
		}
		return 0, false
	}
	rv := id[s.rangeIdx]
	pos := sort.Search(len(g.members), func(i int) bool {
		return s.rangeValOf(g.members[i]).Compare(rv) >= 0
	})
	for ; pos < len(g.members) && s.rangeValOf(g.members[pos]).Compare(rv) == 0; pos++ {
		if s.metaAt(g.members[pos]).ID.Compare(id) == 0 {
			return g.members[pos], true
		}
	}
	return 0, false
}

// lookupGroup locates the equality group an identifier belongs to, nil when
// absent.
func (s *Snapshot) lookupGroup(id fragment.ID) *group {
	eq := make([]relation.Value, len(s.eqIdx))
	for i, j := range s.eqIdx {
		eq[i] = id[j]
	}
	key := relation.Key(eq)
	return s.gshards[groupShardIndex(key)].groups[key]
}

// Has reports whether a live fragment with the given identifier exists.
func (s *Snapshot) Has(id fragment.ID) bool {
	_, ok := s.Lookup(id)
	return ok
}

// Postings returns the live postings of a keyword, sorted by TF descending.
// The returned slice must not be modified. Lists without tombstones — the
// common case, since RemoveFragment compacts any list whose dead ratio
// crosses the threshold — are returned by reference without scanning.
func (s *Snapshot) Postings(keyword string) []Posting {
	pl := s.list(keyword)
	if pl == nil {
		return nil
	}
	if pl.dead == 0 {
		return pl.ps
	}
	out := make([]Posting, 0, pl.liveDF())
	for _, p := range pl.ps {
		if s.aliveAt(p.Frag) {
			out = append(out, p)
		}
	}
	return out
}

// DF returns the document frequency of a keyword: the number of live
// fragments containing it. O(1): each list counts its own tombstones.
func (s *Snapshot) DF(keyword string) int {
	pl := s.list(keyword)
	if pl == nil {
		return 0
	}
	return pl.liveDF()
}

// IDF returns the keyword's inverse document frequency, Dash's 1/DF
// approximation (§VI). The value is precomputed when the list mutates, so
// query scoring reads it in O(1).
func (s *Snapshot) IDF(keyword string) float64 {
	pl := s.list(keyword)
	if pl == nil {
		return 0
	}
	return pl.idf
}

// PostingsIDF returns Postings(keyword) and IDF(keyword) with a single
// list lookup — the form the search engine's seeding loop uses, so each
// queried keyword costs one shard hash instead of two.
func (s *Snapshot) PostingsIDF(keyword string) ([]Posting, float64) {
	pl := s.list(keyword)
	if pl == nil {
		return nil, 0
	}
	if pl.dead == 0 {
		return pl.ps, pl.idf
	}
	out := make([]Posting, 0, pl.liveDF())
	for _, p := range pl.ps {
		if s.aliveAt(p.Frag) {
			out = append(out, p)
		}
	}
	return out, pl.idf
}

// Keywords returns all keywords with at least one live posting, sorted; the
// benchmark harness uses it to pick hot/warm/cold terms. The sorted slice
// is cached per epoch — for a frozen snapshot the first call builds it and
// every later call reuses it — and must not be modified by the caller.
func (s *Snapshot) Keywords() []string {
	if c := s.kwCache.Load(); c != nil && c.epoch == s.epoch {
		return c.kws
	}
	var out []string
	for _, sh := range s.shards {
		for kw, pl := range sh.lists {
			if pl.liveDF() > 0 {
				out = append(out, kw)
			}
		}
	}
	sort.Strings(out)
	s.kwCache.Store(&kwCache{epoch: s.epoch, kws: out})
	return out
}

// EqValues returns a fragment's equality-attribute values keyed by column.
func (s *Snapshot) EqValues(ref FragRef) (map[string]relation.Value, error) {
	m, err := s.Meta(ref)
	if err != nil {
		return nil, err
	}
	out := make(map[string]relation.Value, len(s.eqIdx))
	for i, j := range s.eqIdx {
		out[s.spec.EqAttrs[i]] = m.ID[j]
	}
	return out, nil
}

// RangeValue returns a fragment's range-attribute value (NULL when the
// query has no range attribute).
func (s *Snapshot) RangeValue(ref FragRef) (relation.Value, error) {
	m, err := s.Meta(ref)
	if err != nil {
		return relation.Value{}, err
	}
	if s.rangeIdx < 0 {
		return relation.Null(), nil
	}
	return m.ID[s.rangeIdx], nil
}

// rangeValOf is RangeValue without bounds checks, for internal use.
func (s *Snapshot) rangeValOf(ref FragRef) relation.Value {
	if s.rangeIdx < 0 {
		return relation.Null()
	}
	return s.metaAt(ref).ID[s.rangeIdx]
}

// Neighbors returns the fragment-graph neighbours of a live fragment: the
// adjacent members of its equality group in range order. A fragment has at
// most two neighbours (the graph is a union of paths, as in Fig. 9).
func (s *Snapshot) Neighbors(ref FragRef) ([]FragRef, error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return nil, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	c := s.chunks[ref>>chunkShift]
	i := int(ref) & chunkMask
	if !c.frags[i].Alive {
		return nil, fmt.Errorf("%w: ref %d is removed", ErrNoFragment, ref)
	}
	g, pos := c.groupOf[i], c.memberAt[i]
	var out []FragRef
	if pos > 0 {
		out = append(out, g.members[pos-1])
	}
	if pos+1 < len(g.members) {
		out = append(out, g.members[pos+1])
	}
	return out, nil
}

// GroupMembers returns the full equality group of a fragment in range
// order. The slice must not be modified.
func (s *Snapshot) GroupMembers(ref FragRef) ([]FragRef, int, error) {
	members, _, _, pos, err := s.GroupPath(ref)
	return members, pos, err
}

// GroupPath returns a live fragment's equality group in range order along
// with the parallel node weights (each member's total keyword count), the
// group's canonical equality key, and the fragment's position on the path.
// Neither slice may be modified. This is the search engine's seeding
// accessor: one chunk lookup hands the expansion loop everything it walks,
// so growing a db-page along the path reads neighbour weights without
// touching fragment metadata again — and the key gives every assembled
// page a content-based identity independent of ref numbering.
func (s *Snapshot) GroupPath(ref FragRef) (members []FragRef, weights []int64, key string, pos int, err error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return nil, nil, "", 0, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	c := s.chunks[ref>>chunkShift]
	i := int(ref) & chunkMask
	if !c.frags[i].Alive {
		return nil, nil, "", 0, fmt.Errorf("%w: ref %d is removed", ErrNoFragment, ref)
	}
	g := c.groupOf[i]
	return g.members, g.weights, g.key, c.memberAt[i], nil
}

// Edges enumerates all fragment-graph edges as (smaller, larger) ref pairs,
// sorted. Mostly useful for tests and stats.
func (s *Snapshot) Edges() [][2]FragRef {
	var out [][2]FragRef
	s.eachGroup(func(g *group) {
		for i := 1; i < len(g.members); i++ {
			a, b := g.members[i-1], g.members[i]
			if a > b {
				a, b = b, a
			}
			out = append(out, [2]FragRef{a, b})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumEdges returns the number of fragment-graph edges.
func (s *Snapshot) NumEdges() int {
	n := 0
	s.eachGroup(func(g *group) {
		if len(g.members) > 1 {
			n += len(g.members) - 1
		}
	})
	return n
}
