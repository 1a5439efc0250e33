package fragindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapDump is the map-and-sort Dump the linear one replaced, kept as the
// reference: per-fragment term maps recovered from the lists, one list per
// keyword rebuilt from them, and every list re-sorted.
func mapDump(idx *Index) *Dump {
	s := idx.s
	order, counts := s.liveFragmentsByID()
	d := &Dump{
		SelAttrs:  append([]string(nil), s.spec.SelAttrs...),
		EqAttrs:   append([]string(nil), s.spec.EqAttrs...),
		RangeAttr: s.spec.RangeAttr,
		Epoch:     s.epoch,
		FragKeys:  make([]string, len(order)),
		Terms:     make([]int64, len(order)),
	}
	pos := make(map[FragRef]int, len(order))
	for i, ref := range order {
		m := s.metaAt(ref)
		d.FragKeys[i] = m.ID.Key()
		d.Terms[i] = m.Terms
		pos[ref] = i
	}
	lists := make(map[string][]Posting)
	for ref, kws := range counts {
		for kw, tf := range kws {
			lists[kw] = append(lists[kw], Posting{Frag: FragRef(pos[ref]), TF: tf})
		}
	}
	d.Keywords = make([]string, 0, len(lists))
	for kw := range lists {
		d.Keywords = append(d.Keywords, kw)
	}
	sort.Strings(d.Keywords)
	d.Postings = make([][]Posting, len(d.Keywords))
	for i, kw := range d.Keywords {
		ps := lists[kw]
		sort.Slice(ps, func(a, b int) bool { return dumpLess(ps[a], ps[b]) })
		d.Postings[i] = ps
	}
	return d
}

// TestLinearDumpMatchesMapDump: on random histories of inserts (out of
// identifier order), removals (tombstones, some compacted, some not) and
// updates, published through copy-on-write freezes, the linear Dump
// equals the map-and-sort reference — and an empty index dumps empty,
// non-nil slices.
func TestLinearDumpMatchesMapDump(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	empty, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := empty.Dump()
	if d.FragKeys == nil || d.Terms == nil || d.Keywords == nil || d.Postings == nil {
		t.Fatalf("empty dump has nil slices: %+v", d)
	}
	if !reflect.DeepEqual(d, mapDump(empty)) {
		t.Fatalf("empty dump = %+v, want %+v", d, mapDump(empty))
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		present := make(map[int]bool)
		for step := 0; step < 300; step++ {
			i := rng.Intn(60)
			id := chunkID(i * 7 % 60) // identifier order differs from insertion order
			counts := map[string]int64{
				fmt.Sprintf("k%d", rng.Intn(8)): int64(1 + rng.Intn(3)),
				fmt.Sprintf("k%d", rng.Intn(8)): int64(1 + rng.Intn(3)),
			}
			switch {
			case !present[i]:
				_, err = idx.InsertFragment(id, counts, 4)
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
			if step%7 == 0 {
				idx.Freeze()
			}
			if got, want := idx.Dump(), mapDump(idx); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: linear dump\n%+v\nwant\n%+v", seed, step, got, want)
			}
		}
	}
}

// TestLinearDumpSortsUnorderedList: a list restored out of (TF, identifier)
// order from untrusted input still dumps canonically.
func TestLinearDumpSortsUnorderedList(t *testing.T) {
	d := &Dump{
		SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v",
		FragKeys: []string{chunkID(0).Key(), chunkID(1).Key(), chunkID(2).Key()},
		Terms:    []int64{3, 3, 3},
		Keywords: []string{"w"},
		Postings: [][]Posting{{{Frag: 2, TF: 1}, {Frag: 0, TF: 1}, {Frag: 1, TF: 5}}},
	}
	idx, err := Restore(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []Posting{{Frag: 1, TF: 5}, {Frag: 0, TF: 1}, {Frag: 2, TF: 1}}
	if got := idx.Dump().Postings[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("dumped list %+v, want %+v", got, want)
	}
}
