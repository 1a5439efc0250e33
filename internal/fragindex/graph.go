package fragindex

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fragment"
)

// Neighbors returns the fragment-graph neighbours of a live fragment (live
// view of the builder's state; see Snapshot.Neighbors).
func (idx *Index) Neighbors(ref FragRef) ([]FragRef, error) { return idx.s.Neighbors(ref) }

// GroupMembers returns the full equality group of a fragment in range
// order. The slice must not be modified.
func (idx *Index) GroupMembers(ref FragRef) ([]FragRef, int, error) {
	return idx.s.GroupMembers(ref)
}

// Edges enumerates all fragment-graph edges as (smaller, larger) ref pairs,
// sorted. Mostly useful for tests and stats.
func (idx *Index) Edges() [][2]FragRef { return idx.s.Edges() }

// NumEdges returns the number of fragment-graph edges.
func (idx *Index) NumEdges() int { return idx.s.NumEdges() }

// InsertFragment adds a fragment incrementally (§VI-A): the node joins its
// equality group at its range position; if it lands between two previously
// adjacent fragments their edge is split into two. This is both the
// incremental construction path and the insert half of index maintenance.
func (idx *Index) InsertFragment(id fragment.ID, termCounts map[string]int64, totalTerms int64) (FragRef, error) {
	s := idx.s
	if len(id) != len(s.spec.SelAttrs) {
		return 0, fmt.Errorf("%w: id %v has %d values, want %d",
			ErrBadIDArity, id, len(id), len(s.spec.SelAttrs))
	}
	if _, ok := s.Lookup(id); ok {
		return 0, fmt.Errorf("%w: %s", ErrDupFragment, id)
	}
	idx.beginWrite()
	s = idx.s
	g := idx.groupFor(id, true)
	ref := idx.appendRef(Meta{ID: id, Terms: totalTerms, Alive: true}, g, -1)
	s.liveFrags++
	s.liveTerms += totalTerms

	// Splice into the group at the range position (weights stay parallel).
	rv := s.rangeValOf(ref)
	pos := sort.Search(len(g.members), func(i int) bool {
		return s.rangeValOf(g.members[i]).Compare(rv) >= 0
	})
	g.members = append(g.members, 0)
	copy(g.members[pos+1:], g.members[pos:])
	g.members[pos] = ref
	g.weights = append(g.weights, 0)
	copy(g.weights[pos+1:], g.weights[pos:])
	g.weights[pos] = totalTerms
	for i := pos; i < len(g.members); i++ {
		idx.setMemberAt(g.members[i], i)
	}

	// Posting lists: insert keeping TF-descending order.
	for kw, tf := range termCounts {
		idx.insertPosting(kw, Posting{Frag: ref, TF: tf})
		idx.appendKw(ref, kw)
	}
	s.epoch++
	return ref, nil
}

// insertPosting places p into kw's list preserving (TF desc, id asc) order
// and refreshes the list's liveness bookkeeping.
func (idx *Index) insertPosting(kw string, p Posting) {
	s := idx.s
	pl := idx.listForWrite(kw, true)
	pl.ps = idx.placePosting(pl.ps, p)
	if pl.liveDF() == 1 { // the list just came (back) to life
		s.liveKws++
	}
	pl.recompute()
}

// placePosting inserts p into list at its (TF desc, id asc) slot. A
// tombstone sharing p's TF and identifier (a removed-then-reinserted
// fragment) sorts after it.
func (idx *Index) placePosting(list []Posting, p Posting) []Posting {
	s := idx.s
	id := s.metaAt(p.Frag).ID
	pos := sort.Search(len(list), func(i int) bool {
		if list[i].TF != p.TF {
			return list[i].TF < p.TF
		}
		return s.metaAt(list[i].Frag).ID.Compare(id) >= 0
	})
	list = append(list, Posting{})
	copy(list[pos+1:], list[pos:])
	list[pos] = p
	return list
}

// postingOf returns the position and TF of ref's posting in kw's list;
// kw must be in ref's forward map. The scan matches by ref, not by (TF,
// identifier): tombstones of a removed-then-reinserted fragment share its
// identifier.
func (s *Snapshot) postingOf(kw string, ref FragRef) (int, int64) {
	if pl := s.list(kw); pl != nil {
		for i, p := range pl.ps {
			if p.Frag == ref {
				return i, p.TF
			}
		}
	}
	return -1, 0
}

// RemoveFragment deletes a fragment: its group edge pair collapses back into
// one edge (the reverse of the §VI-A split), and its postings become
// tombstones. Each affected list's dead counter and precomputed IDF are
// updated through the forward keyword map, and lists whose dead ratio
// reaches the compaction threshold are reclaimed on the spot — so the read
// path never pays for tombstones left behind here.
func (idx *Index) RemoveFragment(id fragment.ID) error {
	ref, ok := idx.s.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFragment, id)
	}
	idx.beginWrite()
	s := idx.s
	g := idx.groupForWrite(s.groupAt(ref))
	pos := s.posAt(ref)
	g.members = append(g.members[:pos], g.members[pos+1:]...)
	g.weights = append(g.weights[:pos], g.weights[pos+1:]...)
	for i := pos; i < len(g.members); i++ {
		idx.setMemberAt(g.members[i], i)
	}
	c := idx.chunkForWrite(ref)
	ci := int(ref) & chunkMask
	c.frags[ci].Alive = false
	c.memberAt[ci] = -1
	s.liveFrags--
	s.liveTerms -= c.frags[ci].Terms
	for _, kw := range c.kwOf[ci] {
		pl := idx.listForWrite(kw, false)
		if pl == nil {
			continue
		}
		pl.dead++
		if pl.liveDF() == 0 {
			s.liveKws--
		}
		pl.recompute()
		if pl.dead*compactDeadDen >= len(pl.ps)*compactDeadNum {
			idx.CompactPostings(kw)
		}
	}
	c.kwOf[ci] = nil // the tombstone never revives; free the forward map
	s.epoch++
	return nil
}

// UpdateFragment replaces a fragment's contents after the underlying
// database changed. This is the efficient partial-update mechanism the
// paper's future work calls for: the fragment keeps its ref, and only
// what changed is written — the old keyword set (the forward map) is
// diffed against the new one, a keyword whose TF is unchanged is not
// touched, a changed TF repositions the one posting in its list, a
// dropped keyword's posting is removed outright (no tombstone) and a new
// keyword's posting is inserted. The node weight moves in place along
// the group path. The epoch advances by two: journals, replicas and
// existing data dirs count an update as a removal plus an insertion, and
// epochs must match them.
func (idx *Index) UpdateFragment(id fragment.ID, termCounts map[string]int64, totalTerms int64) error {
	ref, ok := idx.s.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFragment, id)
	}
	idx.beginWrite()
	s := idx.s
	ci := int(ref) & chunkMask
	if old := s.metaAt(ref).Terms; old != totalTerms {
		idx.chunkForWrite(ref).frags[ci].Terms = totalTerms
		s.liveTerms += totalTerms - old
		g := idx.groupForWrite(s.groupAt(ref))
		g.weights[s.posAt(ref)] = totalTerms
	}
	oldKws := s.kwsAt(ref)
	kept := 0
	for _, kw := range oldKws {
		newTF, stays := termCounts[kw]
		pos, tf := s.postingOf(kw, ref)
		switch {
		case !stays:
			idx.dropPosting(kw, pos)
		case newTF != tf:
			idx.movePosting(kw, pos, newTF)
		}
		if stays {
			kept++
		}
	}
	if kept != len(oldKws) || kept != len(termCounts) {
		// The keyword set changed: rebuild the forward map (a fresh slice —
		// the old one may be shared with a published chunk) and insert the
		// new keywords' postings.
		kws := make([]string, 0, len(termCounts))
		for kw, tf := range termCounts {
			kws = append(kws, kw)
			if !slices.Contains(oldKws, kw) {
				idx.insertPosting(kw, Posting{Frag: ref, TF: tf})
			}
		}
		idx.chunkForWrite(ref).kwOf[ci] = kws
	}
	s.epoch += 2
	return nil
}

// movePosting repositions the posting at pos in kw's list for a new TF,
// keeping the list's (TF desc, id asc) order.
func (idx *Index) movePosting(kw string, pos int, tf int64) {
	pl := idx.listForWrite(kw, false)
	p := pl.ps[pos]
	p.TF = tf
	pl.ps = idx.placePosting(append(pl.ps[:pos], pl.ps[pos+1:]...), p)
}

// dropPosting deletes the live posting at pos from kw's list, updating its
// liveness bookkeeping, and compacts the list once its tombstones reach
// the threshold (the removal raised their share).
func (idx *Index) dropPosting(kw string, pos int) {
	s := idx.s
	pl := idx.listForWrite(kw, false)
	pl.ps = append(pl.ps[:pos], pl.ps[pos+1:]...)
	if pl.liveDF() == 0 {
		s.liveKws--
	}
	pl.recompute()
	switch {
	case len(pl.ps) == 0:
		delete(s.shards[shardIndex(kw)].lists, kw)
	case pl.dead*compactDeadDen >= len(pl.ps)*compactDeadNum:
		idx.CompactPostings(kw)
	}
}

// liveRefsByID returns the live refs sorted by fragment identifier.
func (s *Snapshot) liveRefsByID() []FragRef {
	order := make([]FragRef, 0, s.liveFrags)
	for ref := 0; ref < s.numRefs; ref++ {
		if s.aliveAt(FragRef(ref)) {
			order = append(order, FragRef(ref))
		}
	}
	sortRefsByID(s, order)
	return order
}
