package fragindex

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fragment"
)

// The fragment-by-fragment rebuild that Compact and NewShardedLive ran
// before both became Restore of a Dump, kept as the reference the
// equivalence tests compare against: per-fragment term maps recovered
// from the inverted lists, then one InsertFragment per live fragment in
// identifier order.

// liveFragmentsByID returns the live refs in identifier order together
// with per-fragment term counts recovered from the inverted lists.
func (s *Snapshot) liveFragmentsByID() ([]FragRef, map[FragRef]map[string]int64) {
	counts := make(map[FragRef]map[string]int64)
	s.eachList(func(kw string, pl *postingList) {
		for _, p := range pl.ps {
			if !s.aliveAt(p.Frag) {
				continue
			}
			m, ok := counts[p.Frag]
			if !ok {
				m = make(map[string]int64)
				counts[p.Frag] = m
			}
			m[kw] += p.TF
		}
	})
	return s.liveRefsByID(), counts
}

// reinsertPartition rebuilds idx's live fragments into n builders, each
// fragment into builder route(id), by re-insertion in identifier order.
// With n == 1 it is the reference Compact.
func reinsertPartition(t *testing.T, idx *Index, n int, route func(fragment.ID) int) []*Index {
	t.Helper()
	s := idx.s
	out := make([]*Index, n)
	for i := range out {
		b, err := New(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	order, counts := s.liveFragmentsByID()
	for _, ref := range order {
		m := s.metaAt(ref)
		if _, err := out[route(m.ID)].InsertFragment(m.ID, counts[ref], m.Terms); err != nil {
			t.Fatalf("re-inserting %s: %v", m.ID, err)
		}
	}
	return out
}

// sameIndex asserts got and want hold the same state, refs included: the
// Dump (epoch too when withEpoch), the edge list, every live fragment's
// group path (members, weights, key, position), and every keyword's
// postings and IDF.
func sameIndex(t *testing.T, label string, got, want *Index, withEpoch bool) {
	t.Helper()
	dg, dw := got.Dump(), want.Dump()
	if !withEpoch {
		dg.Epoch, dw.Epoch = 0, 0
	}
	if !reflect.DeepEqual(dg, dw) {
		t.Fatalf("%s: dump\n%+v\nwant\n%+v", label, dg, dw)
	}
	if got.NumRefs() != want.NumRefs() {
		t.Fatalf("%s: %d refs, want %d", label, got.NumRefs(), want.NumRefs())
	}
	if g, w := got.Edges(), want.Edges(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: edges %v, want %v", label, g, w)
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	for ref := FragRef(0); int(ref) < want.NumRefs(); ref++ {
		gm, gw, gk, gp, gerr := gs.GroupPath(ref)
		wm, ww, wk, wp, werr := ws.GroupPath(ref)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gm, wm) ||
			!reflect.DeepEqual(gw, ww) || gk != wk || gp != wp {
			t.Fatalf("%s: ref %d group path %v %v %q %d (%v), want %v %v %q %d (%v)",
				label, ref, gm, gw, gk, gp, gerr, wm, ww, wk, wp, werr)
		}
	}
	if g, w := got.Keywords(), want.Keywords(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: keywords %v, want %v", label, g, w)
	}
	for _, kw := range want.Keywords() {
		gp, gi := gs.PostingsIDF(kw)
		wp, wi := ws.PostingsIDF(kw)
		if !reflect.DeepEqual(gp, wp) || gi != wi {
			t.Fatalf("%s: %q postings %v idf %v, want %v idf %v", label, kw, gp, gi, wp, wi)
		}
	}
}

// randomHistory builds an index through a random history of inserts (out
// of identifier order), removals (tombstones, some compacted) and
// updates, with copy-on-write freezes between some of them.
func randomHistory(t *testing.T, seed int64, steps int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idx, err := New(shardedSpec)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[int]bool)
	for step := 0; step < steps; step++ {
		i := rng.Intn(90)
		id := synthID(i*7%90/6, i*7%90%6) // identifier order differs from insertion order
		counts := map[string]int64{
			fmt.Sprintf("k%d", rng.Intn(10)): int64(1 + rng.Intn(3)),
			fmt.Sprintf("k%d", rng.Intn(10)): int64(1 + rng.Intn(3)),
		}
		switch {
		case !present[i]:
			_, err = idx.InsertFragment(id, counts, int64(2+rng.Intn(4)))
			present[i] = true
		case rng.Intn(3) == 0:
			err = idx.RemoveFragment(id)
			present[i] = false
		default:
			err = idx.UpdateFragment(id, counts, int64(3+rng.Intn(3)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if step%5 == 0 {
			idx.Freeze()
		}
	}
	return idx
}

// TestRebuildMatchesReinsert: over random histories, Compact and
// NewShardedLive at S = 2/3/5 produce exactly the index the
// fragment-by-fragment re-insertion did — same dumps, edges, group paths,
// postings and refs — and each shard is seeded at the epoch the
// re-insertion counted to.
func TestRebuildMatchesReinsert(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		idx := randomHistory(t, seed, 40+int(seed)*25)
		epoch := idx.Snapshot().Epoch()

		compacted, err := idx.Compact()
		if err != nil {
			t.Fatal(err)
		}
		ref := reinsertPartition(t, idx, 1, func(fragment.ID) int { return 0 })[0]
		sameIndex(t, fmt.Sprintf("seed %d compact", seed), compacted, ref, false)
		if got := compacted.Snapshot().Epoch(); got != epoch {
			t.Fatalf("seed %d: compacted epoch %d, want the source's %d", seed, got, epoch)
		}

		for _, n := range []int{2, 3, 5} {
			// NewShardedLive with n > 1 only reads idx, so one history
			// serves every shard count.
			sl, err := NewShardedLive(idx, n)
			if err != nil {
				t.Fatal(err)
			}
			route := func(id fragment.ID) int {
				si, err := sl.ShardFor(id)
				if err != nil {
					t.Fatal(err)
				}
				return si
			}
			want := reinsertPartition(t, idx, n, route)
			for i := 0; i < n; i++ {
				got := sl.Shard(i).builder
				sameIndex(t, fmt.Sprintf("seed %d S=%d shard %d", seed, n, i), got, want[i], true)
				if g, w := sl.Shard(i).Snapshot().Epoch(), want[i].Snapshot().Epoch(); g != w {
					t.Fatalf("seed %d S=%d shard %d: seeded epoch %d, want %d", seed, n, i, g, w)
				}
			}
		}
	}
}

// TestCompactIfNeededMatchesReinsert: the snapshot GC publishes the
// re-inserted index one epoch past the one it replaced.
func TestCompactIfNeededMatchesReinsert(t *testing.T) {
	idx := randomHistory(t, 99, 400)
	want := reinsertPartition(t, idx, 1, func(fragment.ID) int { return 0 })[0]
	epoch := idx.Snapshot().Epoch()
	l := NewLive(idx)
	ran, err := l.CompactIfNeeded(context.Background(), 0)
	if err != nil || !ran {
		t.Fatalf("CompactIfNeeded = %v, %v", ran, err)
	}
	sameIndex(t, "compacted live", l.builder, want, false)
	if got := l.Snapshot().Epoch(); got != epoch+1 {
		t.Fatalf("published epoch %d, want %d", got, epoch+1)
	}
}

// TestShardedSeedEpochsFooddb pins the seeded epoch of each fooddb shard
// at S = 3: one per fragment the shard holds. A fresh data dir names its
// first snapshot generations after these epochs (see
// testdata/golden/fooddb-s3), and every later publish counts from them.
func TestShardedSeedEpochsFooddb(t *testing.T) {
	sl, err := NewShardedLive(fooddbIndex(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 4, 1}
	for i, w := range want {
		if got := sl.Shard(i).Snapshot().Epoch(); got != w {
			t.Errorf("shard %d seeded at epoch %d, want %d", i, got, w)
		}
		if got := sl.Shard(i).Snapshot().NumFragments(); uint64(got) != w {
			t.Errorf("shard %d holds %d fragments, want %d", i, got, w)
		}
	}
}
