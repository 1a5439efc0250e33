package dash

// Contract tests for the context-first public API: compile-time
// interface coverage (the apidiff-style guard CI runs), Open's shard
// selection and option validation, and the cross-shard-count equivalence
// the contract promises.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/fooddb"
	"repro/internal/relation"
	"repro/internal/search"
)

// The apidiff guard: the one handle type implements the full Handle
// contract (and with it Searcher, Maintainer, and CachedSearcher). A
// signature drift breaks the build right here.
var _ Handle = (*handle)(nil)

// fooddbIndex builds one fresh fooddb index (each serving engine takes
// ownership of its index, so equivalence tests build one per topology).
func fooddbIndex(t *testing.T) (*Database, *Application, func() *Index) {
	t.Helper()
	db := fooddb.New()
	app, err := Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Bind(db); err != nil {
		t.Fatal(err)
	}
	return db, app, func() *Index {
		idx, _, err := Build(context.Background(), db, app, BuildOptions{Algorithm: AlgReference})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
}

// TestOpenTopologySelection: every Open serves the sharded topology, one
// shard unless WithShards says otherwise.
func TestOpenTopologySelection(t *testing.T) {
	_, app, build := fooddbIndex(t)
	for name, tc := range map[string]struct {
		opts   []Option
		shards int
	}{
		"default":       {nil, 1},
		"WithShards(1)": {[]Option{WithShards(1)}, 1},
		"WithShards(4)": {[]Option{WithShards(4)}, 4},
	} {
		h, err := Open(context.Background(), build(), app, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Topology != "sharded" || st.Shards != tc.shards || len(st.PerShard) != tc.shards {
			t.Errorf("%s: stats = %s/%d shards/%d per-shard, want sharded/%d", name, st.Topology, st.Shards, len(st.PerShard), tc.shards)
		}
	}
}

// TestOpenOptionValidation: malformed options fail Open loudly.
func TestOpenOptionValidation(t *testing.T) {
	_, app, build := fooddbIndex(t)
	for name, opts := range map[string][]Option{
		"shards=0":                 {WithShards(0)},
		"shards=-3":                {WithShards(-3)},
		"empty data dir":           {WithDataDir("")},
		"cache budget 0":           {WithResultCache(0)},
		"admission cap < 0":        {WithAdmissionControl(AdmissionOptions{MaxInFlight: -1})},
		"no replica URLs":          {WithReplicas()},
		"staleness bound 0":        {WithStalenessBound(0)},
		"replicas without durable": {WithReplicas("http://127.0.0.1:1")},
	} {
		if _, err := Open(context.Background(), build(), app, opts...); err == nil {
			t.Errorf("%s: Open accepted invalid options", name)
		}
	}
}

// TestOpenEquivalence is the cross-shard-count contract: dash.Open at the
// default, WithShards(1), and WithShards(3) all return results
// byte-identical to a plain engine over the unpartitioned index on the
// fooddb corpus for a full keyword × k × s sweep.
func TestOpenEquivalence(t *testing.T) {
	_, app, build := fooddbIndex(t)

	ctx := context.Background()
	reference := search.New(build(), app)
	searchers := map[string]Searcher{}
	for name, opts := range map[string][]Option{
		"Open(default)":       nil,
		"Open(WithShards(1))": {WithShards(1)},
		"Open(WithShards(3))": {WithShards(3)},
	} {
		h, err := Open(context.Background(), build(), app, opts...)
		if err != nil {
			t.Fatal(err)
		}
		searchers[name] = h
	}

	keywords := append(reference.Snapshot().Keywords(), "nosuchword")
	if len(keywords) < 5 {
		t.Fatalf("fooddb vocabulary too small: %d", len(keywords))
	}
	for _, kw := range keywords {
		for _, k := range []int{1, 2, 5} {
			for _, s := range []int{1, 20, 100} {
				req := Request{Keywords: []string{kw}, K: k, SizeThreshold: s}
				rawWant, err := reference.Search(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				want := stripRefs(rawWant)
				for name, sr := range searchers {
					got, err := sr.Search(ctx, req)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(stripRefs(got), want) {
						t.Fatalf("%s diverges from the unpartitioned engine on %q k=%d s=%d:\n%+v\nvs\n%+v",
							name, kw, k, s, got, rawWant)
					}
					// The batch form answers each slot identically.
					batch := sr.SearchBatch(ctx, []Request{req, req})
					for _, br := range batch {
						if br.Err != nil || !reflect.DeepEqual(stripRefs(br.Results), want) {
							t.Fatalf("%s SearchBatch diverges on %q: %v / %+v",
								name, kw, br.Err, br.Results)
						}
					}
				}
			}
		}
	}
}

// TestHandleMaintenanceCancellation: a cancelled maintenance ctx through
// the facade publishes nothing, at one shard and at three.
func TestHandleMaintenanceCancellation(t *testing.T) {
	db, app, build := fooddbIndex(t)
	for _, shards := range []int{1, 3} {
		h, err := Open(context.Background(), build(), app, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		before := h.Stats()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d := Delta{Changes: []FragmentChange{{
			Op: OpInsertFragment, ID: FragmentID{relation.String("Nordic"), relation.Int(3)},
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1,
		}}}
		if _, err := h.Apply(ctx, d); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled Apply err = %v", shards, err)
		}
		if _, err := h.Recrawl(ctx, db, []FragmentID{{relation.String("American"), relation.Int(10)}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled Recrawl err = %v", shards, err)
		}
		if _, err := h.CompactIfNeeded(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled CompactIfNeeded err = %v", shards, err)
		}
		if after := h.Stats(); after.Publishes != before.Publishes || after.MaxEpoch != before.MaxEpoch {
			t.Errorf("shards=%d: cancelled maintenance published (%+v -> %+v)", shards, before, after)
		}
		// The same delta applies cleanly with a live ctx.
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatalf("shards=%d: apply after cancellation: %v", shards, err)
		}

		// A pre-cancelled Flush must not drain the queue: the buffered
		// delta survives for a later Flush instead of being dropped.
		if _, err := h.Queue(Delta{Changes: []FragmentChange{{Op: OpRemoveFragment, ID: d.Changes[0].ID}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Flush(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: pre-cancelled Flush err = %v", shards, err)
		}
		if n := h.Stats().Queued; n != 1 {
			t.Fatalf("shards=%d: pre-cancelled Flush drained the queue: %d queued, want 1", shards, n)
		}
		if _, err := h.Flush(context.Background()); err != nil {
			t.Fatalf("shards=%d: Flush after cancellation: %v", shards, err)
		}
		if h.(*handle).live.Has(d.Changes[0].ID) {
			t.Errorf("shards=%d: queued removal was lost", shards)
		}
	}
}

// TestQueueFlush: queued deltas accumulate without publishing, and one
// Flush folds them all into a single publish.
func TestQueueFlush(t *testing.T) {
	_, app, build := fooddbIndex(t)
	h, err := Open(context.Background(), build(), app)
	if err != nil {
		t.Fatal(err)
	}
	live := h.(*handle).live
	s0 := live.PinAll()
	before := h.Stats()
	id := FragmentID{relation.String("American"), relation.Int(10)}
	for i := 1; i <= 3; i++ {
		n, err := h.Queue(Delta{Changes: []FragmentChange{{
			Op: OpUpdateFragment, ID: id,
			TermCounts: map[string]int64{"burger": int64(i)}, TotalTerms: int64(i),
		}}})
		if err != nil || n != i {
			t.Errorf("Queue returned %d, %v, want %d", n, err, i)
		}
	}
	if !slices.Equal(live.PinAll(), s0) {
		t.Error("Queue published a snapshot")
	}
	if q := h.Stats().Queued; q != 3 {
		t.Errorf("Queued = %d, want 3", q)
	}
	rep, err := h.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Deltas != 3 || rep.Total.Updated != 1 {
		t.Errorf("flush report = %+v, want 3 deltas folded to 1 update", rep.Total)
	}
	st := h.Stats()
	if st.Queued != 0 {
		t.Errorf("Queued after flush = %d", st.Queued)
	}
	if st.Publishes != before.Publishes+1 || st.DeltasApplied != before.DeltasApplied+3 {
		t.Errorf("stats after flush: publishes %d->%d, deltas %d->%d, want +1 and +3",
			before.Publishes, st.Publishes, before.DeltasApplied, st.DeltasApplied)
	}
	// The folded update carries the last queued statistics.
	shard, err := live.ShardFor(id)
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Shard(shard).Snapshot()
	ref, ok := snap.Lookup(id)
	if !ok {
		t.Fatal("updated fragment vanished")
	}
	if got := snap.TermsOf(ref); got != 3 {
		t.Errorf("terms after fold = %d, want 3 (last update wins)", got)
	}
	// Flushing an empty queue is a no-op.
	sBefore := live.PinAll()
	if rep, err := h.Flush(context.Background()); err != nil || !slices.Equal(live.PinAll(), sBefore) {
		t.Errorf("empty flush: report %+v err %v, snapshot changed=%v", rep, err, !slices.Equal(live.PinAll(), sBefore))
	}
}

// TestHandleConcurrentQueueFlush races producers queueing inserts, a
// flusher, and cached searchers on one handle (run with -race): every
// queued delta is published exactly once, and the queue ends empty.
func TestHandleConcurrentQueueFlush(t *testing.T) {
	_, app, build := fooddbIndex(t)
	h, err := Open(context.Background(), build(), app, WithShards(3), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 25
	ctx := context.Background()
	var producersWG, others sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		producersWG.Add(1)
		go func(p int) {
			defer producersWG.Done()
			for i := 0; i < perProducer; i++ {
				d := Delta{Changes: []FragmentChange{{
					Op: OpInsertFragment, ID: FragmentID{relation.String(fmt.Sprintf("Q%d", p)), relation.Int(int64(i))},
					TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1,
				}}}
				if _, err := h.Queue(d); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	others.Add(2)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.Flush(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer others.Done()
		req := Request{Keywords: []string{"herring"}, K: 3, SizeThreshold: 5}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := h.SearchStatus(ctx, req); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	producersWG.Wait()
	close(stop)
	others.Wait()
	if _, err := h.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Queued != 0 || st.Inserted != producers*perProducer {
		t.Errorf("after the final flush: queued %d, inserted %d, want 0 and %d", st.Queued, st.Inserted, producers*perProducer)
	}
}
