package fragindex_test

// The in-place UpdateFragment must be observationally identical to the
// remove+insert pair it replaced. The reference below keeps that old
// semantics alive only here: random histories run against a LiveIndex
// (in-place updates, copy-on-write publishes, coalesced batches) and
// against a plain builder that applies every update as RemoveFragment +
// InsertFragment, and after every step the two must agree on the Dump
// (epoch included) and on search results.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/internal/search"
)

var propSpec = fragindex.Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

func propID(g, v int) fragment.ID {
	return fragment.ID{relation.String(fmt.Sprintf("g%d", g)), relation.Int(int64(v))}
}

// propVocab is small so lists collide, TFs tie, and keywords die and
// revive across the history.
var propVocab = []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibis", "jay"}

func randTerms(rng *rand.Rand) (map[string]int64, int64) {
	n := 1 + rng.Intn(4)
	counts := make(map[string]int64, n)
	var total int64
	for len(counts) < n {
		kw := propVocab[rng.Intn(len(propVocab))]
		if _, ok := counts[kw]; ok {
			continue
		}
		tf := int64(1 + rng.Intn(3))
		counts[kw] = tf
		total += tf
	}
	return counts, total + int64(rng.Intn(2))
}

// mutateTerms derives an update from a fragment's current terms: one TF
// change, one keyword added, one dropped, an unchanged body, or a fresh
// random set.
func mutateTerms(rng *rand.Rand, cur map[string]int64) (map[string]int64, int64) {
	next := make(map[string]int64, len(cur)+1)
	for kw, tf := range cur {
		next[kw] = tf
	}
	kws := make([]string, 0, len(cur))
	for kw := range cur {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	switch rng.Intn(5) {
	case 0: // TF change
		kw := kws[rng.Intn(len(kws))]
		next[kw] = 1 + (next[kw]+int64(rng.Intn(2)))%3
	case 1: // keyword added
		next[propVocab[rng.Intn(len(propVocab))]] = int64(1 + rng.Intn(3))
	case 2: // keyword dropped (keep at least one)
		if len(kws) > 1 {
			delete(next, kws[rng.Intn(len(kws))])
		}
	case 3: // unchanged body
	default:
		return randTerms(rng)
	}
	var total int64
	for _, tf := range next {
		total += tf
	}
	return next, total
}

// refApply applies one change with the remove+insert update semantics.
func refApply(t *testing.T, idx *fragindex.Index, ch crawl.FragmentChange) {
	t.Helper()
	var err error
	switch ch.Op {
	case crawl.OpInsertFragment:
		_, err = idx.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
	case crawl.OpRemoveFragment:
		err = idx.RemoveFragment(ch.ID)
	case crawl.OpUpdateFragment:
		if err = idx.RemoveFragment(ch.ID); err == nil {
			_, err = idx.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
		}
	}
	if err != nil {
		t.Fatalf("reference %s %s: %v", ch.Op, ch.ID, err)
	}
}

// pageView is a search result with refs resolved to identifiers, so two
// indexes that number refs differently compare by content.
type pageView struct {
	Score float64
	Size  int64
	IDs   []string
	EqKey string
}

func searchView(t *testing.T, snap *fragindex.Snapshot, kws []string) []pageView {
	t.Helper()
	res, err := search.New(snap, nil).SearchSnapshot(context.Background(), snap,
		search.Request{Keywords: kws, K: 5, SizeThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]pageView, len(res))
	for i, r := range res {
		v := pageView{Score: r.Score, Size: r.Size, EqKey: r.EqKey}
		for _, ref := range r.Fragments {
			m, err := snap.Meta(ref)
			if err != nil {
				t.Fatal(err)
			}
			v.IDs = append(v.IDs, m.ID.Key())
		}
		out[i] = v
	}
	return out
}

var propQueries = [][]string{{"ant"}, {"bee", "cat"}, {"dog", "eel", "fox"}, {"gnu", "hen"}, {"ibis", "jay", "ant"}}

func searchAll(t *testing.T, snap *fragindex.Snapshot) [][]pageView {
	t.Helper()
	out := make([][]pageView, len(propQueries))
	for i, q := range propQueries {
		out[i] = searchView(t, snap, q)
	}
	return out
}

// TestInPlaceUpdateMatchesRemoveInsert runs random histories — TF
// changes, keyword add and drop, remove-then-reinsert of the same
// identifier (sequentially, which leaves a tombstone sharing the live
// fragment's identifier, and within one batch, where it coalesces into an
// update), and coalesced batches — and checks after every publish that
// the in-place index and the remove+insert reference have identical
// Dumps and search results, and that a snapshot pinned earlier still
// answers exactly what it answered when it was published.
func TestInPlaceUpdateMatchesRemoveInsert(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live0, err := fragindex.New(propSpec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fragindex.New(propSpec)
		if err != nil {
			t.Fatal(err)
		}
		live := fragindex.NewLive(live0)
		model := make(map[string]map[string]int64) // present fragments' terms
		var pinned *fragindex.Snapshot
		var pinnedView [][]pageView

		for step := 0; step < 150; step++ {
			// One delta per step, or a batch of up to four; each change is
			// valid against the model as it evolves through the batch.
			n := 1
			if rng.Intn(3) == 0 {
				n = 2 + rng.Intn(3)
			}
			var ds []crawl.Delta
			for k := 0; k < n; k++ {
				id := propID(rng.Intn(4), rng.Intn(8))
				key := id.Key()
				var ch crawl.FragmentChange
				cur, present := model[key]
				switch {
				case !present:
					counts, total := randTerms(rng)
					ch = crawl.FragmentChange{Op: crawl.OpInsertFragment, ID: id, TermCounts: counts, TotalTerms: total}
					model[key] = counts
				case rng.Intn(4) == 0:
					ch = crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: id}
					delete(model, key)
				default:
					counts, total := mutateTerms(rng, cur)
					ch = crawl.FragmentChange{Op: crawl.OpUpdateFragment, ID: id, TermCounts: counts, TotalTerms: total}
					model[key] = counts
				}
				ds = append(ds, crawl.Delta{Changes: []crawl.FragmentChange{ch}})
			}

			if len(ds) == 1 {
				if _, err := live.Apply(ctx, ds[0]); err != nil {
					t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
				}
				refApply(t, ref, ds[0].Changes[0])
			} else {
				if _, err := live.ApplyBatch(ctx, ds); err != nil {
					t.Fatalf("seed %d step %d: batch: %v", seed, step, err)
				}
				folded, err := crawl.Coalesce(ds)
				if err != nil {
					t.Fatal(err)
				}
				for _, ch := range folded.Changes {
					refApply(t, ref, ch)
				}
			}

			if got, want := live.Dump(), ref.Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: dumps diverge:\nin-place  %+v\nreference %+v", seed, step, got, want)
			}
			snap := live.Snapshot()
			view := searchAll(t, snap)
			if want := searchAll(t, ref.Snapshot()); !reflect.DeepEqual(view, want) {
				t.Fatalf("seed %d step %d: search diverges:\nin-place  %+v\nreference %+v", seed, step, view, want)
			}
			if pinned != nil && !reflect.DeepEqual(searchAll(t, pinned), pinnedView) {
				t.Fatalf("seed %d step %d: a published snapshot changed under later updates", seed, step)
			}
			if step%10 == 0 {
				pinned, pinnedView = snap, view
			}
		}
		if len(model) != live.Snapshot().NumFragments() {
			t.Fatalf("seed %d: model has %d fragments, index %d", seed, len(model), live.Snapshot().NumFragments())
		}
	}
}

// TestUpdateClonesOnlyWhatChanged pins the O(delta) cost of a published
// one-fragment update: one TF change clones exactly one posting list and
// no metadata, an unchanged body clones nothing, a weight change clones
// the fragment's group and metadata chunk only, and none leaves a
// tombstone.
func TestUpdateClonesOnlyWhatChanged(t *testing.T) {
	ctx := context.Background()
	idx, err := fragindex.New(propSpec)
	if err != nil {
		t.Fatal(err)
	}
	terms := func(i int) map[string]int64 {
		return map[string]int64{"shared": int64(1 + i%3), fmt.Sprintf("u%d", i): 2, "common": 1}
	}
	for i := 0; i < 600; i++ {
		if _, err := idx.InsertFragment(propID(i/8, i%8), terms(i), 5); err != nil {
			t.Fatal(err)
		}
	}
	live := fragindex.NewLive(idx)
	target := propID(37, 5) // fragment 301
	update := func(counts map[string]int64, total int64) fragindex.ApplyStats {
		t.Helper()
		st, err := live.Apply(ctx, crawl.Delta{Changes: []crawl.FragmentChange{{
			Op: crawl.OpUpdateFragment, ID: target, TermCounts: counts, TotalTerms: total,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	before := live.Stats()
	oneTF := terms(301)
	oneTF["shared"] = 3 // was 1 + 301%3 = 2
	st := update(oneTF, 5)
	if st.ClonedLists != 1 || st.ClonedChunks != 0 || st.ClonedGroups != 0 {
		t.Errorf("one-TF update cloned %d lists / %d chunks / %d groups, want 1 / 0 / 0",
			st.ClonedLists, st.ClonedChunks, st.ClonedGroups)
	}
	if st.Epoch != before.Epoch+2 {
		t.Errorf("update epoch %d, want %d (+2 per update)", st.Epoch, before.Epoch+2)
	}

	st = update(oneTF, 5)
	if st.ClonedLists != 0 || st.ClonedChunks != 0 || st.ClonedGroups != 0 {
		t.Errorf("unchanged update cloned %d lists / %d chunks / %d groups, want 0 / 0 / 0",
			st.ClonedLists, st.ClonedChunks, st.ClonedGroups)
	}

	// A weight change clones the one group whose path carries it and the
	// one chunk holding the group's refs (296..303).
	if st = update(oneTF, 6); st.ClonedGroups != 1 || st.ClonedChunks != 1 || st.ClonedLists != 0 {
		t.Errorf("weight-only update cloned %d groups / %d chunks / %d lists, want 1 / 1 / 0",
			st.ClonedGroups, st.ClonedChunks, st.ClonedLists)
	}

	after := live.Stats()
	if after.TombstonedRefs != 0 || after.Fragments != before.Fragments {
		t.Errorf("updates left %d tombstones (fragments %d -> %d)", after.TombstonedRefs, before.Fragments, after.Fragments)
	}
	ps := live.Snapshot().Postings("shared")
	ref, _ := live.Snapshot().Lookup(target)
	for i, p := range ps {
		if p.Frag == ref && (p.TF != 3 || (i > 0 && ps[i-1].TF < 3)) {
			t.Errorf("repositioned posting %+v at %d out of TF order", p, i)
		}
	}
}
