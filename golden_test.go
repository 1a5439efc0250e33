package dash

// Data-dir compatibility: testdata/golden holds fooddb data dirs (S=1 and
// S=3) written by an earlier release of this package (see its README).
// Reopening them must recover exactly the state the writer acknowledged,
// through both snapshot load and journal replay, so that upgrading the
// serving code never strands an existing data dir.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/relation"
	"repro/internal/search"
)

func goldenID(cuisine string, budget int64) FragmentID {
	return FragmentID{relation.String(cuisine), relation.Int(budget)}
}

// goldenChange builds one fragment change; TotalTerms is the sum of terms.
func goldenChange(op crawl.ChangeOp, id FragmentID, terms map[string]int64) FragmentChange {
	fc := FragmentChange{Op: op, ID: id, TermCounts: terms}
	for _, n := range terms {
		fc.TotalTerms += n
	}
	return fc
}

func goldenDelta(cs ...FragmentChange) Delta { return Delta{Changes: cs} }

// goldenPhases is the history the golden dirs were written with: phase 0
// before one Checkpoint, phase 1 after it (journal only). Each step is one
// Apply (a single delta) or one ApplyBatch (several).
var goldenPhases = [2][][]Delta{
	{
		{goldenDelta(goldenChange(OpUpdateFragment, goldenID("American", 10), map[string]int64{"burger": 9, "coffee": 2}))},
		{goldenDelta(goldenChange(OpInsertFragment, goldenID("Nordic", 3), map[string]int64{"herring": 2, "coffee": 1}))},
		{
			goldenDelta(goldenChange(OpInsertFragment, goldenID("Nordic", 5), map[string]int64{"herring": 1, "fries": 1})),
			goldenDelta(goldenChange(OpUpdateFragment, goldenID("Thai", 10), map[string]int64{"thai": 3, "burger": 1})),
		},
	},
	{
		{goldenDelta(goldenChange(OpRemoveFragment, goldenID("American", 18), nil))},
		{goldenDelta(goldenChange(OpUpdateFragment, goldenID("Nordic", 3), map[string]int64{"herring": 4, "burger": 2}))},
		{
			goldenDelta(goldenChange(OpInsertFragment, goldenID("Korean", 7), map[string]int64{"kimchi": 3, "burger": 1})),
			goldenDelta(goldenChange(OpRemoveFragment, goldenID("Nordic", 5), nil)),
		},
	},
}

// stripRefs blanks each result's FragRefs, keeping their count: refs are
// snapshot-internal identifiers (a sharded or recovered index numbers them
// differently), so equivalence is over page content.
func stripRefs(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].Fragments = make([]FragRef, len(out[i].Fragments))
	}
	return out
}

// copyDir copies a golden data dir so the test never mutates the fixture
// (opening a data dir may truncate or rotate its journal).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGoldenDataDirCompat(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"fooddb-s1", "fooddb-s3"} {
		t.Run(name, func(t *testing.T) {
			_, app, build := fooddbIndex(t)

			// The reference: one unpartitioned index that applied the same
			// history in memory.
			live := fragindex.NewLive(build())
			for _, phase := range goldenPhases {
				for _, ds := range phase {
					var err error
					if len(ds) == 1 {
						_, err = live.Apply(ctx, ds[0])
					} else {
						_, err = live.ApplyBatch(ctx, ds)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			reference := search.New(live, app)

			dir := t.TempDir()
			copyDir(t, filepath.Join("testdata", "golden", name), dir)
			if !IsInitialized(dir) {
				t.Fatalf("golden dir %s is not an initialized data dir", name)
			}
			h, err := Open(ctx, nil, app, WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			// Recovery ran both halves: a post-seed snapshot generation was
			// loaded and the post-checkpoint journal was replayed.
			ds := h.DurabilityStats()
			if !ds.Recovered {
				t.Fatal("reopen did not recover")
			}
			var snapLoaded bool
			var replayed int
			for _, ri := range ds.Recovery {
				snapLoaded = snapLoaded || ri.SnapshotEpoch > 0
				replayed += ri.ReplayedRecords
			}
			if !snapLoaded || replayed == 0 {
				t.Fatalf("recovery %+v: want a post-seed snapshot load and journal replay", ds.Recovery)
			}

			if got, want := h.Stats().Fragments, live.Stats().Fragments; got != want {
				t.Errorf("recovered %d fragments, reference %d", got, want)
			}
			queries := [][]string{{"nosuchword"}, {"burger", "coffee"}, {"herring", "burger"}, {"kimchi", "thai"}}
			for _, kw := range reference.Snapshot().Keywords() {
				queries = append(queries, []string{kw})
			}
			for _, kws := range queries {
				for _, k := range []int{1, 2, 5} {
					for _, s := range []int{1, 20, 100} {
						req := Request{Keywords: kws, K: k, SizeThreshold: s}
						want, err := reference.Search(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						got, err := h.Search(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(stripRefs(got), stripRefs(want)) {
							t.Fatalf("%v k=%d s=%d: recovered\n%+v\nreference\n%+v", kws, k, s, got, want)
						}
					}
				}
			}
		})
	}
}
