package fragindex

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// dumpOf round-trips an index through Dump for comparisons.
func dumpOf(t *testing.T, idx *Index) *Dump {
	t.Helper()
	d := idx.Dump()
	if len(d.FragKeys) != len(d.Terms) || len(d.Keywords) != len(d.Postings) {
		t.Fatalf("inconsistent dump: %d/%d frags, %d/%d keywords",
			len(d.FragKeys), len(d.Terms), len(d.Keywords), len(d.Postings))
	}
	return d
}

// TestDumpRestoreRoundTrip: Restore(Dump()) reproduces the exact logical
// state — the restored index dumps byte-identically and serves the same
// postings.
func TestDumpRestoreRoundTrip(t *testing.T) {
	idx := fooddbIndex(t)
	// Mix in mutations so tombstones and updated lists are exercised.
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	if err := idx.UpdateFragment(id, map[string]int64{"burger": 3, "shake": 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveFragment(fragment.ID{relation.String("Thai"), relation.Int(10)}); err != nil {
		t.Fatal(err)
	}
	d := dumpOf(t, idx)

	got, err := Restore(d)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(got.Dump(), d) {
		t.Error("restored index dumps differently from its source")
	}
	a, b := idx.Freeze(), got.Freeze()
	if a.Epoch() != b.Epoch() {
		t.Errorf("epochs differ: %d vs %d", a.Epoch(), b.Epoch())
	}
	if a.NumFragments() != b.NumFragments() || a.NumKeywords() != b.NumKeywords() {
		t.Errorf("cardinality differs: %d/%d vs %d/%d",
			a.NumFragments(), a.NumKeywords(), b.NumFragments(), b.NumKeywords())
	}
	for _, kw := range a.Keywords() {
		if a.DF(kw) != b.DF(kw) {
			t.Errorf("%q: DF %d vs %d", kw, a.DF(kw), b.DF(kw))
		}
	}
}

// TestDumpCanonical: two indexes reaching the same logical state through
// different mutation histories dump identically (modulo epoch, which counts
// mutations) — the recovery-equivalence bedrock.
func TestDumpCanonical(t *testing.T) {
	direct := fooddbIndex(t)
	id := fragment.ID{relation.String("Nordic"), relation.Int(7)}
	if _, err := direct.InsertFragment(id, map[string]int64{"herring": 2, "rye": 1}, 3); err != nil {
		t.Fatal(err)
	}

	detour := fooddbIndex(t)
	// Insert wrong, update right, plus an insert/remove pair that must leave
	// no trace in the canonical form.
	tmp := fragment.ID{relation.String("Zanzibar"), relation.Int(1)}
	if _, err := detour.InsertFragment(id, map[string]int64{"lutefisk": 9}, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := detour.InsertFragment(tmp, map[string]int64{"clove": 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := detour.UpdateFragment(id, map[string]int64{"herring": 2, "rye": 1}, 3); err != nil {
		t.Fatal(err)
	}
	if err := detour.RemoveFragment(tmp); err != nil {
		t.Fatal(err)
	}

	da, db := direct.Dump(), detour.Dump()
	da.Epoch, db.Epoch = 0, 0
	if !reflect.DeepEqual(da, db) {
		t.Error("same logical state dumped differently across mutation histories")
	}
}

// TestSetEpoch: the forced epoch is what the next snapshot reports — the
// contract journal replay leans on to land on the acknowledged epoch.
func TestSetEpoch(t *testing.T) {
	idx := fooddbIndex(t)
	idx.SetEpoch(41)
	if got := idx.Freeze().Epoch(); got != 41 {
		t.Fatalf("epoch after SetEpoch(41) = %d", got)
	}
	l := NewLive(idx)
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	st, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Snapshot().Epoch(); got <= 41 || got != st.Epoch {
		t.Fatalf("epoch after one apply = %d (stats %d), want > 41 and agreeing", got, st.Epoch)
	}
}

// corruptDump builds a small valid dump, lets the caller damage it, and
// expects Restore to answer ErrCorruptIndex.
func corruptDump(t *testing.T, name string, damage func(d *Dump)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		idx := fooddbIndex(t)
		d := idx.Dump()
		damage(d)
		if _, err := Restore(d); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("err = %v, want ErrCorruptIndex", err)
		}
	})
}

// TestRestoreRejectsCorruption: every invariant violation Restore guards —
// each would silently corrupt group or document-frequency state if accepted.
func TestRestoreRejectsCorruption(t *testing.T) {
	corruptDump(t, "fragment arrays disagree", func(d *Dump) {
		d.Terms = d.Terms[:len(d.Terms)-1]
	})
	corruptDump(t, "keyword arrays disagree", func(d *Dump) {
		d.Postings = d.Postings[:len(d.Postings)-1]
	})
	corruptDump(t, "bad fragment key", func(d *Dump) {
		d.FragKeys[0] = "not a fragment key"
	})
	corruptDump(t, "fragment arity", func(d *Dump) {
		d.FragKeys[0] = fragment.ID{relation.String("x")}.Key()
	})
	corruptDump(t, "duplicate fragment key", func(d *Dump) {
		d.FragKeys[1] = d.FragKeys[0]
	})
	corruptDump(t, "empty keyword", func(d *Dump) {
		d.Keywords[0] = ""
	})
	corruptDump(t, "posting ref out of range", func(d *Dump) {
		d.Postings[0][0].Frag = FragRef(len(d.FragKeys))
	})
	corruptDump(t, "negative posting ref", func(d *Dump) {
		d.Postings[0][0].Frag = -1
	})
	corruptDump(t, "duplicate posting", func(d *Dump) {
		d.Postings[0] = append(d.Postings[0], d.Postings[0][0])
	})
	corruptDump(t, "duplicate keyword", func(d *Dump) {
		d.Keywords[1] = d.Keywords[0]
	})
	corruptDump(t, "range attribute outside selection", func(d *Dump) {
		d.RangeAttr = "nope"
	})
}

// TestSortRefsByID covers both paths of the sorted-check fast path: already
// sorted input returns untouched, unsorted input comes out fully ordered.
func TestSortRefsByID(t *testing.T) {
	idx := fooddbIndex(t)
	s := idx.s
	n := s.numRefs
	refs := make([]FragRef, n)
	for i := range refs {
		refs[i] = FragRef(i)
	}
	sortRefsByID(s, refs)
	for i := 1; i < n; i++ {
		if s.metaAt(refs[i-1]).ID.Compare(s.metaAt(refs[i]).ID) > 0 {
			t.Fatalf("refs not sorted at %d", i)
		}
	}
	sorted := append([]FragRef(nil), refs...)
	// Reverse and re-sort: must match the first ordering exactly.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		refs[i], refs[j] = refs[j], refs[i]
	}
	sortRefsByID(s, refs)
	if !reflect.DeepEqual(refs, sorted) {
		t.Error("sorting reversed input diverged from sorted input")
	}
}

// TestPublishHookWriteAhead: the hook observes the folded delta and epoch
// before the swap; a hook error aborts the publish entirely — nothing
// served, builder rolled back.
func TestPublishHookWriteAhead(t *testing.T) {
	l := liveFooddb(t)
	var hooked []uint64
	fail := false
	l.SetPublishHook(func(_ context.Context, d crawl.Delta, epoch uint64) error {
		if fail {
			return errors.New("journal down")
		}
		if len(d.Changes) == 0 {
			t.Error("hook saw an empty delta")
		}
		// The swap must not have happened yet: the serving snapshot still
		// reports the previous epoch.
		if got := l.Snapshot().Epoch(); got >= epoch {
			t.Errorf("hook ran after publish: serving epoch %d >= hooked %d", got, epoch)
		}
		hooked = append(hooked, epoch)
		return nil
	})
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 2}, 2)); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != l.Snapshot().Epoch() {
		t.Fatalf("hooked epochs %v, serving epoch %d", hooked, l.Snapshot().Epoch())
	}

	fail = true
	before := l.Snapshot()
	if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 9}, 9)); err == nil {
		t.Fatal("apply succeeded with a failing hook")
	}
	if l.Snapshot() != before {
		t.Error("failed hook still published")
	}
	fail = false
	// The builder rolled back: the next apply publishes cleanly with no
	// trace of the aborted delta. "zanzibar" is new to the corpus, so its
	// DF isolates this update.
	if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"zanzibar": 1}, 1)); err != nil {
		t.Fatal(err)
	}
	s := l.Snapshot()
	if s.DF("zanzibar") != 1 {
		t.Error("post-abort apply missing its change")
	}
	if tf := postingTF(s, "burger", id); tf == 9 {
		t.Error("aborted delta leaked into a later snapshot")
	}
}

func postingTF(s *Snapshot, kw string, id fragment.ID) int64 {
	for _, p := range s.Postings(kw) {
		if m, err := s.Meta(p.Frag); err == nil && m.ID.Compare(id) == 0 {
			return p.TF
		}
	}
	return -1
}
