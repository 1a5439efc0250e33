package fragindex

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/fragment"
)

// indexWire is the gob-serialized form of an Index. Only live fragments are
// written; groups are rebuilt on load.
type indexWire struct {
	SelAttrs  []string
	EqAttrs   []string
	RangeAttr string
	FragKeys  []string
	Terms     []int64
	Inverted  map[string][]wirePosting
}

type wirePosting struct {
	Frag int32
	TF   int64
}

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
	s := idx.s
	order := s.liveRefsByID()
	d := &Dump{
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
	return d
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
// duplicate fragment keys, postings referencing out-of-range fragments, and
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
		return nil, err
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

// SetEpoch forces the builder's mutation epoch so the next published
// snapshot reports it. The durable layer uses it during recovery: a journal
// replay must land on exactly the epoch the pre-crash index acknowledged,
// not on whatever a from-scratch reconstruction happens to count to. Like
// any mutation, it requires exclusive builder access.
func (idx *Index) SetEpoch(e uint64) { idx.s.epoch = e }

// Save serializes the index. Tombstoned fragments are compacted away.
func (idx *Index) Save(w io.Writer) error {
	d := idx.Dump()
	wire := indexWire{
		SelAttrs:  d.SelAttrs,
		EqAttrs:   d.EqAttrs,
		RangeAttr: d.RangeAttr,
		FragKeys:  d.FragKeys,
		Terms:     d.Terms,
		Inverted:  make(map[string][]wirePosting, len(d.Keywords)),
	}
	for i, kw := range d.Keywords {
		wps := make([]wirePosting, len(d.Postings[i]))
		for j, p := range d.Postings[i] {
			wps[j] = wirePosting{Frag: int32(p.Frag), TF: p.TF}
		}
		wire.Inverted[kw] = wps
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Load deserializes an index written by Save, with the same corruption
// validation as Restore (ErrCorruptIndex on duplicate fragments, duplicate
// postings, or out-of-range refs).
func Load(r io.Reader) (*Index, error) {
	var wire indexWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	d := &Dump{
		SelAttrs:  wire.SelAttrs,
		EqAttrs:   wire.EqAttrs,
		RangeAttr: wire.RangeAttr,
		FragKeys:  wire.FragKeys,
		Terms:     wire.Terms,
		Keywords:  make([]string, 0, len(wire.Inverted)),
	}
	for kw := range wire.Inverted {
		d.Keywords = append(d.Keywords, kw)
	}
	sort.Strings(d.Keywords)
	d.Postings = make([][]Posting, len(d.Keywords))
	for i, kw := range d.Keywords {
		wps := wire.Inverted[kw]
		ps := make([]Posting, len(wps))
		for j, p := range wps {
			ps[j] = Posting{Frag: FragRef(p.Frag), TF: p.TF}
		}
		d.Postings[i] = ps
	}
	return Restore(d)
}

// sortRefsByID sorts refs by fragment identifier. Saved indexes arrive
// already sorted, so check first — sort.Slice on sorted input still pays
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
