package fragindex

import (
	"fmt"
	"sort"

	"repro/internal/fragment"
)

// Dump is an index's complete logical state in canonical, storage-neutral
// form: live fragments sorted by identifier, keywords sorted, and each
// posting list ordered (TF descending, fragment identifier ascending).
// Postings reference fragments by their position in FragKeys. Two indexes
// holding the same logical state produce identical Dumps regardless of the
// mutation history that led there — the property the durable layer's
// recovery-equivalence checks rest on. Epoch carries the mutation epoch the
// state was captured at, so a restored index publishes at the epoch its
// source served.
type Dump struct {
	SelAttrs  []string
	EqAttrs   []string
	RangeAttr string
	Epoch     uint64
	FragKeys  []string    // live fragments, identifier-sorted
	Terms     []int64     // parallel to FragKeys
	Keywords  []string    // sorted
	Postings  [][]Posting // parallel to Keywords; Frag indexes FragKeys
}

// Dump captures the index's current logical state (see Dump's type doc).
// Tombstones are compacted away: dumped refs are positions in the
// identifier-sorted live fragment list, not the builder's ref space.
//
// The dump is linear in the index: a dense ref→position table remaps each
// live posting as the sorted keywords are walked. Posting lists are
// already ordered (TF descending, identifier ascending), and positions
// follow identifier order, so each remapped list comes out in Dump order
// without a per-fragment map or a re-sort (a list restored out of order
// from untrusted input is the one case that still sorts).
func (idx *Index) Dump() *Dump {
	d, _ := idx.s.dump()
	return d
}

// dump is Dump plus the live refs in dump order: FragKeys[i] is order[i].
func (s *Snapshot) dump() (d *Dump, order []FragRef) {
	order = s.liveRefsByID()
	d = &Dump{
		SelAttrs:  append([]string(nil), s.spec.SelAttrs...),
		EqAttrs:   append([]string(nil), s.spec.EqAttrs...),
		RangeAttr: s.spec.RangeAttr,
		Epoch:     s.epoch,
		FragKeys:  make([]string, len(order)),
		Terms:     make([]int64, len(order)),
	}
	pos := make([]int32, s.numRefs) // dump position per live ref
	for i, ref := range order {
		m := s.metaAt(ref)
		d.FragKeys[i] = m.ID.Key()
		d.Terms[i] = m.Terms
		pos[ref] = int32(i)
	}
	d.Keywords = make([]string, 0, s.liveKws)
	s.eachList(func(kw string, pl *postingList) {
		if pl.liveDF() > 0 {
			d.Keywords = append(d.Keywords, kw)
		}
	})
	sort.Strings(d.Keywords)
	d.Postings = make([][]Posting, len(d.Keywords))
	for i, kw := range d.Keywords {
		pl := s.list(kw)
		ps := make([]Posting, 0, pl.liveDF())
		ordered := true
		for _, p := range pl.ps {
			if pl.dead > 0 && !s.aliveAt(p.Frag) {
				continue
			}
			q := Posting{Frag: FragRef(pos[p.Frag]), TF: p.TF}
			if n := len(ps); n > 0 && dumpLess(q, ps[n-1]) {
				ordered = false
			}
			ps = append(ps, q)
		}
		if !ordered {
			sort.Slice(ps, func(a, b int) bool { return dumpLess(ps[a], ps[b]) })
		}
		d.Postings[i] = ps
	}
	return d, order
}

// dumpLess is Dump's posting order: TF descending, then dump position
// (identifier order) ascending.
func dumpLess(a, b Posting) bool {
	if a.TF != b.TF {
		return a.TF > b.TF
	}
	return a.Frag < b.Frag
}

// Restore rebuilds an index from a Dump, validating it as untrusted input:
// a spec naming attributes outside the selection attributes, duplicate
// fragment keys, postings referencing out-of-range fragments, and
// duplicate postings within one keyword list all return ErrCorruptIndex —
// each silently corrupts group or document-frequency invariants if accepted.
func Restore(d *Dump) (*Index, error) {
	if len(d.FragKeys) != len(d.Terms) {
		return nil, fmt.Errorf("%w: fragment arrays disagree", ErrCorruptIndex)
	}
	if len(d.Keywords) != len(d.Postings) {
		return nil, fmt.Errorf("%w: keyword arrays disagree", ErrCorruptIndex)
	}
	idx, err := New(Spec{
		SelAttrs:  d.SelAttrs,
		EqAttrs:   d.EqAttrs,
		RangeAttr: d.RangeAttr,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	s := idx.s
	for i, key := range d.FragKeys {
		id, err := fragment.ParseID(key)
		if err != nil {
			return nil, fmt.Errorf("%w: bad fragment key: %v", ErrCorruptIndex, err)
		}
		if len(id) != len(d.SelAttrs) {
			return nil, fmt.Errorf("%w: fragment arity", ErrCorruptIndex)
		}
		idx.appendRef(Meta{ID: id, Terms: d.Terms[i], Alive: true}, nil, -1)
		s.liveTerms += d.Terms[i]
	}
	s.liveFrags = s.numRefs
	// Rebuild groups: identifier-sorted insertion keeps members ordered.
	// Dumps are identifier-sorted by construction; tolerate arbitrary order
	// anyway by sorting. Sorted adjacency also makes duplicate keys — which
	// would silently split one fragment across two group slots — adjacent
	// and therefore cheap to reject.
	order := make([]FragRef, s.numRefs)
	for i := range order {
		order[i] = FragRef(i)
	}
	sortRefsByID(s, order)
	for i, ref := range order {
		m := s.metaAt(ref)
		if i > 0 && s.metaAt(order[i-1]).ID.Compare(m.ID) == 0 {
			return nil, fmt.Errorf("%w: duplicate fragment %s", ErrCorruptIndex, m.ID)
		}
		g := idx.groupFor(m.ID, true)
		idx.setMemberAt(ref, len(g.members))
		idx.setGroupOf(ref, g)
		g.members = append(g.members, ref)
		g.weights = append(g.weights, m.Terms)
	}
	seen := make(map[FragRef]struct{})
	for i, kw := range d.Keywords {
		wps := d.Postings[i]
		if len(wps) == 0 {
			continue
		}
		if kw == "" {
			return nil, fmt.Errorf("%w: empty keyword", ErrCorruptIndex)
		}
		clear(seen)
		ps := make([]Posting, len(wps))
		for j, p := range wps {
			if int(p.Frag) < 0 || int(p.Frag) >= s.numRefs {
				return nil, fmt.Errorf("%w: posting ref out of range", ErrCorruptIndex)
			}
			if _, dup := seen[p.Frag]; dup {
				return nil, fmt.Errorf("%w: duplicate posting for fragment %d in %q",
					ErrCorruptIndex, p.Frag, kw)
			}
			seen[p.Frag] = struct{}{}
			ps[j] = p
			idx.appendKw(p.Frag, kw)
		}
		pl := &postingList{ps: ps}
		pl.recompute()
		if s.shards[shardIndex(kw)].lists[kw] != nil {
			return nil, fmt.Errorf("%w: duplicate keyword %q", ErrCorruptIndex, kw)
		}
		s.shards[shardIndex(kw)].lists[kw] = pl
		s.liveKws++
	}
	s.epoch = d.Epoch
	return idx, nil
}

// Compact rebuilds the index without tombstones, reclaiming posting slots
// and renumbering refs: Restore(idx.Dump()), the one-pass identifier-order
// construction Build uses (§VI-A). It returns the compacted index at the
// receiver's epoch; the receiver is left untouched, and the result shares
// no storage with it (or with any snapshot it published).
func (idx *Index) Compact() (*Index, error) { return Restore(idx.Dump()) }

// split partitions the dump into n parts, fragment i going to part
// shardOf(i). Each part keeps identifier order and, within every list,
// posting order (positions are renumbered monotonically), so each part is
// itself a canonical Dump; the parts carry no epoch.
func (d *Dump) split(n int, shardOf func(i int) int) []*Dump {
	// Fragment i moves to part at[i], position local[i]; sizes counts
	// each part's entries so every slice is allocated once, exactly.
	at := make([]int, len(d.FragKeys))
	local := make([]FragRef, len(d.FragKeys))
	sizes := make([]int, n)
	for i := range d.FragKeys {
		si := shardOf(i)
		at[i], local[i] = si, FragRef(sizes[si])
		sizes[si]++
	}
	parts := make([]*Dump, n)
	for si := range parts {
		parts[si] = &Dump{
			SelAttrs: d.SelAttrs, EqAttrs: d.EqAttrs, RangeAttr: d.RangeAttr,
			FragKeys: make([]string, 0, sizes[si]),
			Terms:    make([]int64, 0, sizes[si]),
		}
	}
	for i, key := range d.FragKeys {
		p := parts[at[i]]
		p.FragKeys = append(p.FragKeys, key)
		p.Terms = append(p.Terms, d.Terms[i])
	}
	for k, kw := range d.Keywords {
		clear(sizes)
		for _, q := range d.Postings[k] {
			sizes[at[q.Frag]]++
		}
		for si, c := range sizes {
			if c > 0 {
				p := parts[si]
				p.Keywords = append(p.Keywords, kw)
				p.Postings = append(p.Postings, make([]Posting, 0, c))
			}
		}
		for _, q := range d.Postings[k] {
			p := parts[at[q.Frag]]
			last := len(p.Postings) - 1
			p.Postings[last] = append(p.Postings[last], Posting{Frag: local[q.Frag], TF: q.TF})
		}
	}
	return parts
}

// SetEpoch forces the builder's mutation epoch so the next published
// snapshot reports it. The durable layer uses it during recovery: a journal
// replay must land on exactly the epoch the pre-crash index acknowledged,
// not on whatever a from-scratch reconstruction happens to count to. Like
// any mutation, it requires exclusive builder access.
func (idx *Index) SetEpoch(e uint64) { idx.s.epoch = e }

// sortRefsByID sorts refs by fragment identifier. Dumps arrive already
// sorted, so check first — sort.Slice on sorted input still pays
// the full O(n log n) comparisons, while a linear scan confirms order in
// one pass.
func sortRefsByID(s *Snapshot, refs []FragRef) {
	sorted := true
	for i := 1; i < len(refs); i++ {
		if s.metaAt(refs[i-1]).ID.Compare(s.metaAt(refs[i]).ID) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sort.Slice(refs, func(i, j int) bool {
		return s.metaAt(refs[i]).ID.Compare(s.metaAt(refs[j]).ID) < 0
	})
}
