package fragindex_test

// Index files: an index is saved as its Dump in the durable layer's
// checksummed snapshot format and loaded back through Restore — the one
// on-disk index format, shared by dashcrawl/dashsearch, dash.SaveIndex /
// LoadIndex and durable checkpoints.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fooddb"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

func foodIndex(t *testing.T) *fragindex.Index {
	t.Helper()
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := crawl.Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(b)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// saveDump writes d as an index file and returns its path.
func saveDump(t *testing.T, d *fragindex.Dump) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dash.idx")
	if err := durable.WriteSnapshot(context.Background(), path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

// load reads an index file: verify and decode the snapshot, then Restore.
func load(path string) (*fragindex.Index, error) {
	d, err := durable.ReadSnapshot(context.Background(), path)
	if err != nil {
		return nil, err
	}
	return fragindex.Restore(d)
}

// saveLoad round-trips an index through an index file.
func saveLoad(t *testing.T, idx *fragindex.Index) *fragindex.Index {
	t.Helper()
	loaded, err := load(saveDump(t, idx.Dump()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return loaded
}

// edgeNames returns the fragment-graph edges by fragment name.
func edgeNames(idx *fragindex.Index) map[string]bool {
	out := make(map[string]bool)
	for _, e := range idx.Edges() {
		a, _ := idx.Meta(e[0])
		b, _ := idx.Meta(e[1])
		s1, s2 := a.ID.String(), b.ID.String()
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		out[s1+"--"+s2] = true
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	idx := foodIndex(t)
	loaded := saveLoad(t, idx)
	if loaded.NumFragments() != idx.NumFragments() {
		t.Errorf("fragments = %d, want %d", loaded.NumFragments(), idx.NumFragments())
	}
	if loaded.NumEdges() != idx.NumEdges() {
		t.Errorf("edges = %d, want %d", loaded.NumEdges(), idx.NumEdges())
	}
	if !reflect.DeepEqual(edgeNames(loaded), edgeNames(idx)) {
		t.Error("graph shape changed through serialization")
	}
	if !reflect.DeepEqual(loaded.Spec(), idx.Spec()) {
		t.Errorf("spec = %+v, want %+v", loaded.Spec(), idx.Spec())
	}
	for _, kw := range []string{"burger", "coffee", "fries"} {
		if loaded.DF(kw) != idx.DF(kw) {
			t.Errorf("%s DF = %d, want %d", kw, loaded.DF(kw), idx.DF(kw))
		}
	}
}

func TestSaveCompactsTombstones(t *testing.T) {
	idx := foodIndex(t)
	if err := idx.RemoveFragment(fragment.ID{relation.String("Thai"), relation.Int(10)}); err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, idx)
	if loaded.NumFragments() != 4 || loaded.NumRefs() != 4 {
		t.Errorf("loaded fragments = %d/%d, want 4/4", loaded.NumFragments(), loaded.NumRefs())
	}
}

// TestSaveLoadCanonicalState: the file preserves the canonical dump
// exactly, epoch included.
func TestSaveLoadCanonicalState(t *testing.T) {
	idx := foodIndex(t)
	if err := idx.UpdateFragment(fragment.ID{relation.String("American"), relation.Int(10)},
		map[string]int64{"burger": 3, "shake": 2}, 5); err != nil {
		t.Fatal(err)
	}
	if got, want := saveLoad(t, idx).Dump(), idx.Dump(); !reflect.DeepEqual(got, want) {
		t.Errorf("save/load changed the logical state:\n%+v\nwant\n%+v", got, want)
	}
}

func TestLoadCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dash.idx")
	if err := os.WriteFile(path, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); !errors.Is(err, durable.ErrCorruptSnapshot) {
		t.Errorf("corrupt err = %v", err)
	}
}

// TestLoadRejectsCorruptFiles: loading refuses file-level corruption
// instead of building a broken index — a truncated file and an
// out-of-range posting fail the snapshot decoder (ErrCorruptSnapshot);
// duplicate fragment keys and duplicate postings, which decode but would
// silently corrupt group or document-frequency state, fail Restore
// (ErrCorruptIndex). Fragment and term arrays of different lengths cannot
// be written at all, so that case goes to Restore directly.
func TestLoadRejectsCorruptFiles(t *testing.T) {
	base := func() *fragindex.Dump {
		return &fragindex.Dump{
			SelAttrs: []string{"c", "v"},
			EqAttrs:  []string{"c"},
			FragKeys: []string{
				fragment.ID{relation.String("a"), relation.Int(1)}.Key(),
				fragment.ID{relation.String("a"), relation.Int(2)}.Key(),
			},
			Terms:    []int64{3, 4},
			Keywords: []string{"kw"},
			Postings: [][]fragindex.Posting{{{Frag: 0, TF: 2}, {Frag: 1, TF: 1}}},
		}
	}
	if _, err := load(saveDump(t, base())); err != nil {
		t.Fatalf("baseline file rejected: %v", err)
	}
	cases := []struct {
		name   string
		damage func(d *fragindex.Dump) // nil: truncate a valid file instead
		want   error
		// unwritable damage cannot be encoded; it goes to Restore directly.
		unwritable bool
	}{
		{name: "truncated file", want: durable.ErrCorruptSnapshot},
		{name: "duplicate fragment key", damage: func(d *fragindex.Dump) { d.FragKeys[1] = d.FragKeys[0] },
			want: fragindex.ErrCorruptIndex},
		{name: "posting ref out of range", damage: func(d *fragindex.Dump) { d.Postings[0][1].Frag = 2 },
			want: durable.ErrCorruptSnapshot},
		{name: "negative posting ref", damage: func(d *fragindex.Dump) { d.Postings[0][1].Frag = -1 },
			want: durable.ErrCorruptSnapshot},
		{name: "duplicate posting", damage: func(d *fragindex.Dump) {
			d.Postings[0] = append(d.Postings[0], fragindex.Posting{Frag: 0, TF: 1})
		}, want: fragindex.ErrCorruptIndex},
		{name: "terms array mismatch", damage: func(d *fragindex.Dump) { d.Terms = d.Terms[:1] },
			want: fragindex.ErrCorruptIndex, unwritable: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			var err error
			switch {
			case tc.damage == nil:
				path := saveDump(t, d)
				b, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if werr := os.WriteFile(path, b[:len(b)/2], 0o644); werr != nil {
					t.Fatal(werr)
				}
				_, err = load(path)
			case tc.unwritable:
				tc.damage(d)
				_, err = fragindex.Restore(d)
			default:
				tc.damage(d)
				_, err = load(saveDump(t, d))
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
