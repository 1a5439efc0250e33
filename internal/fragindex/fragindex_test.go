package fragindex

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fooddb"
	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

func fooddbIndex(t *testing.T) *Index {
	t.Helper()
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	out, err := crawl.Reference(db, b)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	spec, err := SpecFromBound(b)
	if err != nil {
		t.Fatalf("SpecFromBound: %v", err)
	}
	idx, err := Build(out, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

func refByName(t *testing.T, idx *Index, name string) FragRef {
	t.Helper()
	for i := 0; i < idx.NumRefs(); i++ {
		m, err := idx.Meta(FragRef(i))
		if err != nil {
			t.Fatal(err)
		}
		if m.Alive && m.ID.String() == name {
			return FragRef(i)
		}
	}
	t.Fatalf("fragment %s not found", name)
	return 0
}

func TestSpecFromBound(t *testing.T) {
	db := fooddb.New()
	b, _ := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	spec, err := SpecFromBound(b)
	if err != nil {
		t.Fatalf("SpecFromBound: %v", err)
	}
	want := Spec{SelAttrs: []string{"cuisine", "budget"}, EqAttrs: []string{"cuisine"}, RangeAttr: "budget"}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("spec = %+v, want %+v", spec, want)
	}

	// Two range attributes are rejected.
	b2, err := psj.Bind(psj.MustParse(
		"SELECT name FROM restaurant WHERE budget BETWEEN $a AND $b AND rate BETWEEN $c AND $d"), db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpecFromBound(b2); !errors.Is(err, ErrMultiRange) {
		t.Errorf("multi-range err = %v", err)
	}
}

// TestGraphMatchesFig9 asserts the exact fragment graph of Fig. 9: the
// American fragments form the path 9–10–12–18, (Thai,10) is isolated, and
// node weights are 8, 8, 17, 8, 10.
func TestGraphMatchesFig9(t *testing.T) {
	idx := fooddbIndex(t)
	if got := idx.NumFragments(); got != 5 {
		t.Fatalf("fragments = %d, want 5", got)
	}
	if got := idx.NumEdges(); got != 3 {
		t.Errorf("edges = %d, want 3", got)
	}
	wantWeights := map[string]int64{
		"(American,9)": 8, "(American,10)": 8, "(American,12)": 17,
		"(American,18)": 8, "(Thai,10)": 10,
	}
	wantNeighbors := map[string][]string{
		"(American,9)":  {"(American,10)"},
		"(American,10)": {"(American,9)", "(American,12)"},
		"(American,12)": {"(American,10)", "(American,18)"},
		"(American,18)": {"(American,12)"},
		"(Thai,10)":     nil,
	}
	for name, weight := range wantWeights {
		ref := refByName(t, idx, name)
		m, _ := idx.Meta(ref)
		if m.Terms != weight {
			t.Errorf("%s weight = %d, want %d", name, m.Terms, weight)
		}
		ns, err := idx.Neighbors(ref)
		if err != nil {
			t.Fatalf("Neighbors(%s): %v", name, err)
		}
		var got []string
		for _, n := range ns {
			nm, _ := idx.Meta(n)
			got = append(got, nm.ID.String())
		}
		if !reflect.DeepEqual(got, wantNeighbors[name]) {
			t.Errorf("%s neighbors = %v, want %v", name, got, wantNeighbors[name])
		}
	}
}

func TestPostingsAndDF(t *testing.T) {
	idx := fooddbIndex(t)
	ps := idx.Postings("burger")
	if len(ps) != 3 || idx.DF("burger") != 3 {
		t.Fatalf("burger postings = %v, DF = %d", ps, idx.DF("burger"))
	}
	if ps[0].TF != 2 {
		t.Errorf("top TF = %d, want 2", ps[0].TF)
	}
	m, _ := idx.Meta(ps[0].Frag)
	if m.ID.String() != "(American,10)" {
		t.Errorf("top fragment = %s", m.ID)
	}
	if idx.DF("nosuchword") != 0 {
		t.Error("DF of unknown word should be 0")
	}
	if kws := idx.Keywords(); len(kws) == 0 {
		t.Error("Keywords() empty")
	}
}

func TestEqAndRangeAccess(t *testing.T) {
	idx := fooddbIndex(t)
	ref := refByName(t, idx, "(American,12)")
	eq, err := idx.EqValues(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !eq["cuisine"].Equal(relation.String("American")) {
		t.Errorf("eq vals = %v", eq)
	}
	rv, err := idx.RangeValue(ref)
	if err != nil || !rv.Equal(relation.Int(12)) {
		t.Errorf("range val = %v, %v", rv, err)
	}
	members, pos, err := idx.GroupMembers(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 || pos != 2 {
		t.Errorf("group members = %d, pos = %d; want 4, 2", len(members), pos)
	}
	if idx.AvgTermsPerFragment() != (8+8+17+8+10)/5.0 {
		t.Errorf("avg terms = %v", idx.AvgTermsPerFragment())
	}
}

func TestMetaErrors(t *testing.T) {
	idx := fooddbIndex(t)
	if _, err := idx.Meta(FragRef(99)); !errors.Is(err, ErrNoFragment) {
		t.Errorf("Meta(99) err = %v", err)
	}
	if _, err := idx.Neighbors(FragRef(-1)); !errors.Is(err, ErrNoFragment) {
		t.Errorf("Neighbors(-1) err = %v", err)
	}
}

// buildIncremental reconstructs an index by inserting the crawl output's
// fragments one at a time in the given order.
func buildIncremental(t *testing.T, out *crawl.Output, spec Spec, order []string) *Index {
	t.Helper()
	idx, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Gather per-fragment term counts from the posting lists.
	counts := make(map[string]map[string]int64)
	for kw, ps := range out.Inverted {
		for _, p := range ps {
			m, ok := counts[p.FragKey]
			if !ok {
				m = make(map[string]int64)
				counts[p.FragKey] = m
			}
			m[kw] = p.TF
		}
	}
	for _, key := range order {
		id, err := fragment.ParseID(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.InsertFragment(id, counts[key], out.FragmentTerms[key]); err != nil {
			t.Fatalf("InsertFragment(%s): %v", id, err)
		}
	}
	return idx
}

// graphShape renders the edge set with human-readable names for comparison.
func graphShape(t *testing.T, idx *Index) map[string]bool {
	t.Helper()
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

// TestPropIncrementalEqualsBatch: inserting fragments in any order yields
// the same graph and the same posting lists as the batch construction
// (§VI-A's incremental algorithm is order-independent).
func TestPropIncrementalEqualsBatch(t *testing.T) {
	db := fooddb.New()
	b, _ := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	out, err := crawl.Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := SpecFromBound(b)
	batch, err := Build(out, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantShape := graphShape(t, batch)

	keys := make([]string, 0, len(out.FragmentTerms))
	for k := range out.FragmentTerms {
		keys = append(keys, k)
	}
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		order := append([]string(nil), keys...)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		inc := buildIncremental(t, out, spec, order)
		if got := graphShape(t, inc); !reflect.DeepEqual(got, wantShape) {
			t.Fatalf("trial %d: graph = %v, want %v (order %v)", trial, got, wantShape, order)
		}
		if inc.NumFragments() != batch.NumFragments() {
			t.Fatalf("trial %d: fragments differ", trial)
		}
		// Posting lists agree keyword by keyword (compare by ID+TF).
		for _, kw := range batch.Keywords() {
			bp, ip := batch.Postings(kw), inc.Postings(kw)
			if len(bp) != len(ip) {
				t.Fatalf("trial %d: %q list lengths differ", trial, kw)
			}
			for i := range bp {
				bm, _ := batch.Meta(bp[i].Frag)
				im, _ := inc.Meta(ip[i].Frag)
				if bp[i].TF != ip[i].TF || bm.ID.Compare(im.ID) != 0 {
					t.Fatalf("trial %d: %q posting %d: (%s,%d) vs (%s,%d)",
						trial, kw, i, bm.ID, bp[i].TF, im.ID, ip[i].TF)
				}
			}
		}
	}
}

func TestInsertErrors(t *testing.T) {
	idx := fooddbIndex(t)
	ref := refByName(t, idx, "(Thai,10)")
	m, _ := idx.Meta(ref)
	if _, err := idx.InsertFragment(m.ID, nil, 1); !errors.Is(err, ErrDupFragment) {
		t.Errorf("dup insert err = %v", err)
	}
	if _, err := idx.InsertFragment(fragment.ID{relation.Int(1)}, nil, 1); !errors.Is(err, ErrBadIDArity) {
		t.Errorf("arity err = %v", err)
	}
}

func TestRemoveFragmentHealsGraph(t *testing.T) {
	idx := fooddbIndex(t)
	mid := refByName(t, idx, "(American,12)")
	m, _ := idx.Meta(mid)
	if err := idx.RemoveFragment(m.ID); err != nil {
		t.Fatalf("RemoveFragment: %v", err)
	}
	// 9–10–12–18 collapses to 9–10–18.
	if got := idx.NumEdges(); got != 2 {
		t.Errorf("edges after removal = %d, want 2", got)
	}
	ten := refByName(t, idx, "(American,10)")
	ns, err := idx.Neighbors(ten)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range ns {
		nm, _ := idx.Meta(n)
		names = append(names, nm.ID.String())
	}
	if !reflect.DeepEqual(names, []string{"(American,9)", "(American,18)"}) {
		t.Errorf("neighbors of (American,10) = %v", names)
	}
	// Postings hide the tombstone.
	if idx.DF("fries") != 0 {
		t.Errorf("fries DF = %d, want 0", idx.DF("fries"))
	}
	if idx.DF("burger") != 2 {
		t.Errorf("burger DF = %d, want 2", idx.DF("burger"))
	}
	if idx.NumFragments() != 4 {
		t.Errorf("fragments = %d, want 4", idx.NumFragments())
	}
	if err := idx.RemoveFragment(m.ID); !errors.Is(err, ErrNoFragment) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestUpdateFragment(t *testing.T) {
	idx := fooddbIndex(t)
	ref := refByName(t, idx, "(American,10)")
	m, _ := idx.Meta(ref)
	// The restaurant gained a comment mentioning "froyo".
	err := idx.UpdateFragment(m.ID, map[string]int64{
		"burger": 2, "queen": 1, "10": 1, "4.3": 1, "froyo": 3,
	}, 8+3)
	if err != nil {
		t.Fatalf("UpdateFragment: %v", err)
	}
	if idx.DF("froyo") != 1 {
		t.Errorf("froyo DF = %d, want 1", idx.DF("froyo"))
	}
	// burger still has three fragments, with the refreshed one on top.
	ps := idx.Postings("burger")
	if len(ps) != 3 || ps[0].TF != 2 {
		t.Fatalf("burger postings after update = %v", ps)
	}
	nref := refByName(t, idx, "(American,10)")
	nm, _ := idx.Meta(nref)
	if nm.Terms != 11 {
		t.Errorf("updated terms = %d, want 11", nm.Terms)
	}
	// Graph intact: still 3 edges.
	if idx.NumEdges() != 3 {
		t.Errorf("edges after update = %d, want 3", idx.NumEdges())
	}
	if err := idx.UpdateFragment(fragment.ID{relation.String("X"), relation.Int(1)}, nil, 0); !errors.Is(err, ErrNoFragment) {
		t.Errorf("update missing err = %v", err)
	}
}

func TestCompact(t *testing.T) {
	idx := fooddbIndex(t)
	mid := refByName(t, idx, "(American,12)")
	m, _ := idx.Meta(mid)
	if err := idx.RemoveFragment(m.ID); err != nil {
		t.Fatal(err)
	}
	compacted, err := idx.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if compacted.NumFragments() != 4 || compacted.NumRefs() != 4 {
		t.Errorf("compacted fragments = %d/%d, want 4/4",
			compacted.NumFragments(), compacted.NumRefs())
	}
	if compacted.NumEdges() != 2 {
		t.Errorf("compacted edges = %d, want 2", compacted.NumEdges())
	}
	if compacted.DF("burger") != 2 {
		t.Errorf("compacted burger DF = %d", compacted.DF("burger"))
	}
}

// TestPropRandomInsertRemoveInvariants drives a random operation sequence
// and checks the structural invariants: the graph is always the union of
// consecutive-member paths, memberAt is consistent, and DF matches live
// posting counts.
func TestPropRandomInsertRemoveInvariants(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	for trial := 0; trial < 15; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		idx, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[string]fragment.ID)
		for step := 0; step < 120; step++ {
			g := r.Intn(3)
			v := r.Intn(10)
			id := fragment.ID{relation.String(fmt.Sprintf("g%d", g)), relation.Int(int64(v))}
			key := id.Key()
			if _, ok := live[key]; ok && r.Intn(2) == 0 {
				if err := idx.RemoveFragment(id); err != nil {
					t.Fatalf("trial %d step %d: remove: %v", trial, step, err)
				}
				delete(live, key)
			} else if _, ok := live[key]; !ok {
				counts := map[string]int64{fmt.Sprintf("w%d", r.Intn(5)): int64(1 + r.Intn(3))}
				if _, err := idx.InsertFragment(id, counts, 3); err != nil {
					t.Fatalf("trial %d step %d: insert: %v", trial, step, err)
				}
				live[key] = id
			}
			if idx.NumFragments() != len(live) {
				t.Fatalf("trial %d step %d: live count %d, want %d",
					trial, step, idx.NumFragments(), len(live))
			}
			// Per-group edges = members-1; all members alive and sorted.
			edges := 0
			idx.s.eachGroup(func(grp *group) {
				if len(grp.members) > 0 {
					edges += len(grp.members) - 1
				}
				for i, ref := range grp.members {
					if !idx.s.aliveAt(ref) {
						t.Fatalf("trial %d: dead member in group", trial)
					}
					if idx.s.posAt(ref) != i {
						t.Fatalf("trial %d: memberAt inconsistent", trial)
					}
					if i > 0 {
						prev := idx.s.rangeValOf(grp.members[i-1])
						if prev.Compare(idx.s.rangeValOf(ref)) >= 0 {
							t.Fatalf("trial %d: group not sorted", trial)
						}
					}
				}
			})
			if idx.NumEdges() != edges {
				t.Fatalf("trial %d: NumEdges = %d, want %d", trial, idx.NumEdges(), edges)
			}
		}
	}
}

// TestNoRangeAttrIndex covers equality-only queries: every fragment is its
// own group, the graph has no edges.
func TestNoRangeAttrIndex(t *testing.T) {
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse("SELECT name, rate FROM restaurant WHERE cuisine = $c"), db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := crawl.Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromBound(b)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RangeAttr != "" {
		t.Fatalf("spec = %+v", spec)
	}
	idx, err := Build(out, spec)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumFragments() != 2 { // American, Thai
		t.Errorf("fragments = %d, want 2", idx.NumFragments())
	}
	if idx.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", idx.NumEdges())
	}
}
