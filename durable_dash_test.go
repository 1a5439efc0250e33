package dash

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/relation"
)

// durableQueries is the fixed battery the persistence tests compare
// topologies and restarts with.
var durableQueries = [][]string{
	{"burger"}, {"coffee"}, {"burger", "coffee"}, {"noodles"},
	{"herring"}, {"zzz-absent"},
}

// searchAll runs a query battery (durableQueries unless overridden) and
// normalizes results for cross-lineage comparison: FragRefs are
// snapshot-internal (a recovered index renumbers them), so only their count
// is kept; everything else must match exactly.
func searchAll(t *testing.T, s Searcher, queries ...[]string) [][]Result {
	t.Helper()
	if len(queries) == 0 {
		queries = durableQueries
	}
	out := make([][]Result, len(queries))
	for i, kws := range queries {
		rs, err := s.Search(context.Background(), Request{Keywords: kws, K: 5, SizeThreshold: 25})
		if err != nil {
			t.Fatalf("search %v: %v", kws, err)
		}
		norm := make([]Result, len(rs))
		for j, r := range rs {
			r.Size += int64(len(r.Fragments)) << 32 // fold the count in before dropping refs
			r.Fragments = nil
			norm[j] = r
		}
		out[i] = norm
	}
	return out
}

// dumpsOf captures the canonical per-shard dumps of any handle — durable,
// in-memory, or replica — so recovered state can be compared
// byte-for-byte against a twin that applied the same deltas without ever
// persisting.
func dumpsOf(t *testing.T, h Handle) []*fragindex.Dump {
	t.Helper()
	live := h.(*handle).live
	out := make([]*fragindex.Dump, live.NumShards())
	for i := range out {
		out[i] = live.Shard(i).Dump()
	}
	return out
}

func durableDeltas() []Delta {
	mk := func(op crawl.ChangeOp, c string, v int64, counts map[string]int64, total int64) Delta {
		return Delta{Changes: []FragmentChange{{
			Op: op, ID: FragmentID{relation.String(c), relation.Int(v)},
			TermCounts: counts, TotalTerms: total,
		}}}
	}
	return []Delta{
		mk(OpInsertFragment, "Nordic", 3, map[string]int64{"herring": 2, "rye": 1}, 3),
		mk(OpUpdateFragment, "American", 10, map[string]int64{"burger": 4, "pickle": 1}, 5),
		mk(OpInsertFragment, "Fusion", 7, map[string]int64{"fusion": 2, "burger": 1}, 3),
		mk(OpUpdateFragment, "Nordic", 3, map[string]int64{"herring": 1, "akvavit": 2}, 3),
		mk(OpRemoveFragment, "Fusion", 7, nil, 0),
	}
}

// TestDurableSeedApplyReopen is the headline property: seed a fresh data
// dir, apply journaled deltas, reopen the directory cold, and the recovered
// handle answers every query identically — for both live topologies.
func TestDurableSeedApplyReopen(t *testing.T) {
	db, app, build := fooddbIndex(t)
	_ = db
	for _, shards := range []int{1, 3} {
		t.Run(map[int]string{1: "live", 3: "sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			h, err := Open(context.Background(), build(), app, WithShards(shards), WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range durableDeltas() {
				if _, err := h.Apply(context.Background(), d); err != nil {
					t.Fatal(err)
				}
			}
			want := searchAll(t, h)
			wantDumps := dumpsOf(t, h)
			wantStats := h.Stats()
			ds := h.DurabilityStats()
			if ds.Recovered || ds.Shards != shards || ds.JournalRecords == 0 {
				t.Errorf("pre-close durability stats %+v", ds)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}

			if !IsInitialized(dir) {
				t.Fatal("data dir not initialized after seeding")
			}
			h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer h2.Close()
			if got := searchAll(t, h2); !reflect.DeepEqual(got, want) {
				t.Error("recovered handle answers differently")
			}
			if got := dumpsOf(t, h2); !reflect.DeepEqual(got, wantDumps) {
				t.Error("recovered canonical state diverged")
			}
			st := h2.Stats()
			if st.Fragments != wantStats.Fragments || st.Shards != shards || st.MaxEpoch != wantStats.MaxEpoch {
				t.Errorf("recovered stats %+v, want fragments/shards/epoch of %+v", st, wantStats)
			}
			ds2 := h2.DurabilityStats()
			if !ds2.Recovered || len(ds2.Recovery) != shards {
				t.Errorf("recovery stats %+v", ds2)
			}
			var replayed int
			for _, ri := range ds2.Recovery {
				replayed += ri.ReplayedRecords
			}
			if replayed != len(durableDeltas()) {
				t.Errorf("replayed %d records, want %d", replayed, len(durableDeltas()))
			}

			// The recovered handle keeps absorbing journaled deltas: a third
			// incarnation sees them too.
			extra := Delta{Changes: []FragmentChange{{
				Op: OpInsertFragment, ID: FragmentID{relation.String("Andean"), relation.Int(2)},
				TermCounts: map[string]int64{"quinoa": 2}, TotalTerms: 2,
			}}}
			if _, err := h2.Apply(context.Background(), extra); err != nil {
				t.Fatal(err)
			}
			want3 := dumpsOf(t, h2)
			h2.Close()
			h3, err := Open(context.Background(), nil, app, WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer h3.Close()
			if got := dumpsOf(t, h3); !reflect.DeepEqual(got, want3) {
				t.Error("second recovery diverged")
			}
		})
	}
}

// TestDurableRecoveryEquivalence: a reopened handle and a never-closed
// in-memory twin that applied the same deltas hold byte-identical canonical
// state — recovery is exact, not approximate.
func TestDurableRecoveryEquivalence(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(context.Background(), build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Open(context.Background(), build(), app)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range durableDeltas() {
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got, want := dumpsOf(t, h2), dumpsOf(t, twin); !reflect.DeepEqual(got, want) {
		t.Error("recovered state diverged from the in-memory twin")
	}
	if got, want := searchAll(t, h2), searchAll(t, twin); !reflect.DeepEqual(got, want) {
		t.Error("recovered searches diverged from the in-memory twin")
	}
}

// TestDurableQueueFlush: queued deltas publish (and journal) only at Flush;
// the flushed batch survives a reopen as one coalesced record.
func TestDurableQueueFlush(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(context.Background(), build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	before := h.DurabilityStats().JournalRecords
	for i, d := range durableDeltas()[:3] {
		if got, err := h.Queue(d); err != nil || got != i+1 {
			t.Errorf("Queue #%d returned %d, %v", i+1, got, err)
		}
	}
	if got := h.DurabilityStats().JournalRecords; got != before {
		t.Errorf("queueing journaled: %d -> %d records", before, got)
	}
	rep, err := h.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Deltas != 3 {
		t.Errorf("flush report %+v", rep)
	}
	if got := h.DurabilityStats().JournalRecords; got != before+1 {
		t.Errorf("flush journaled %d records, want 1 coalesced", got-before)
	}
	want := dumpsOf(t, h)
	h.Close()
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := dumpsOf(t, h2); !reflect.DeepEqual(got, want) {
		t.Error("flushed batch did not survive the reopen")
	}
}

// TestDurableCompactCheckpoints: CompactIfNeeded on a durable handle
// doubles as a checkpoint — the journal rotates and recovery replays
// nothing.
func TestDurableCompactCheckpoints(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(context.Background(), build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range durableDeltas() {
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.CompactIfNeeded(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ds := h.DurabilityStats()
	if ds.Checkpoints == 0 || ds.JournalRecords != 0 {
		t.Errorf("post-compact durability stats %+v", ds)
	}
	want := dumpsOf(t, h)
	h.Close()
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := dumpsOf(t, h2); !reflect.DeepEqual(got, want) {
		t.Error("post-checkpoint recovery diverged")
	}
	for _, ri := range h2.DurabilityStats().Recovery {
		if ri.ReplayedRecords != 0 {
			t.Errorf("recovery replayed %d records after a checkpoint", ri.ReplayedRecords)
		}
	}
	// An explicit Checkpoint is available too.
	if err := h2.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRacingApplyKeepsRecord covers the handle's checkpoint
// against concurrent applies. First the race itself, replayed step by
// step through the handle's own layers: a shard dumped at E, an apply
// journaling past E, then the store checkpoint with the E dump — what
// Checkpoint did when an apply slipped between its dump and the store
// call. The store refuses the stale dump and the applied record stays
// reachable from cursor E. Then Checkpoint runs against a stream of
// concurrent applies, and walking the tail from the oldest retained
// journal must reach the durable epoch with every poll shipping records
// (no record-free advance, which is what a stranded record looks like).
func TestCheckpointRacingApplyKeepsRecord(t *testing.T) {
	ctx := context.Background()
	_, app, build := fooddbIndex(t)
	h, err := Open(ctx, build(), app, WithShards(1), WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hh := h.(*handle)
	update := func(tf int64) Delta {
		return Delta{Changes: []FragmentChange{{
			Op: OpUpdateFragment, ID: FragmentID{relation.String("American"), relation.Int(10)},
			TermCounts: map[string]int64{"burger": tf, "pickle": 1}, TotalTerms: tf + 1,
		}}}
	}

	stale := hh.live.Shard(0).Dump()
	if _, err := h.Apply(ctx, update(4)); err != nil {
		t.Fatal(err)
	}
	durableEpoch, err := hh.store.DurableEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	serr := hh.store.Checkpoint(ctx, 0, stale)
	chunk, err := hh.store.TailFrom(ctx, 0, stale.Epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 1 || chunk.Next != durableEpoch {
		t.Fatalf("tail from the dump epoch %d: %d records to %d, want the record at %d",
			stale.Epoch, chunk.Records, chunk.Next, durableEpoch)
	}
	if !errors.Is(serr, durable.ErrStaleCheckpoint) {
		t.Fatalf("stale store checkpoint error = %v, want ErrStaleCheckpoint", serr)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := h.Apply(ctx, update(int64(5+i%7))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if err := h.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}

	sd := hh.store.ShardDurability(0)
	if sd.Error != "" || len(sd.Journals) == 0 {
		t.Fatalf("shard inventory %+v", sd)
	}
	cursor := sd.Journals[0].Epoch
	for cursor < sd.DurableEpoch {
		chunk, err := hh.store.TailFrom(ctx, 0, cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Records == 0 {
			t.Fatalf("tail from %d shipped no records below durable epoch %d: a stranded record", cursor, chunk.DurableEpoch)
		}
		cursor = chunk.Next
	}
	if cursor != sd.DurableEpoch {
		t.Fatalf("tail walk ended at %d, durable epoch %d", cursor, sd.DurableEpoch)
	}
}

// TestDurableOpenErrors: the option-validation matrix for WithDataDir.
func TestDurableOpenErrors(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()

	if _, err := Open(context.Background(), build(), app, WithDataDir("")); err == nil {
		t.Error("empty data dir accepted")
	}
	if _, err := Open(context.Background(), nil, app, WithDataDir(dir)); err == nil {
		t.Error("nil index accepted for a fresh data dir")
	}
	if _, err := Open(context.Background(), nil, app); err == nil {
		t.Error("nil index accepted without a data dir")
	}

	h, err := Open(context.Background(), build(), app, WithShards(2), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := Open(context.Background(), build(), app, WithDataDir(dir)); err == nil {
		t.Error("built index accepted for an initialized data dir")
	}
	if _, err := Open(context.Background(), nil, app, WithShards(3), WithDataDir(dir)); err == nil {
		t.Error("shard mismatch accepted")
	}
	// Matching explicit shard count is fine.
	h2, err := Open(context.Background(), nil, app, WithShards(2), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h2.Close()

	if _, err := Open(context.Background(), build(), app, WithDataDir(dir), WithSyncPolicy(SyncPolicy{Mode: "sometimes"})); err == nil {
		t.Error("unknown sync mode accepted")
	}
}

// TestDurableInterfaceSurface: a durable handle answers the durability
// reads; a plain in-memory handle answers them explicitly empty. Both
// queue.
func TestDurableInterfaceSurface(t *testing.T) {
	_, app, build := fooddbIndex(t)
	h, err := Open(context.Background(), build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if ds := h.DurabilityStats(); ds == nil || ds.Shards != 1 {
		t.Errorf("durable handle stats = %+v", ds)
	}
	if h.DurabilityState() != DurabilityHealthy || h.DurabilityProbeIn() != 0 {
		t.Errorf("durable handle state %q, probe in %v", h.DurabilityState(), h.DurabilityProbeIn())
	}
	if _, err := h.Queue(Delta{}); err != nil {
		t.Errorf("durable Queue: %v", err)
	}
	plain, err := Open(context.Background(), build(), app)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DurabilityStats() != nil || plain.DurabilityState() != "" {
		t.Error("in-memory handle reports durability")
	}
	if err := plain.Checkpoint(context.Background()); !errors.Is(err, ErrNotDurable) {
		t.Errorf("in-memory Checkpoint err = %v, want ErrNotDurable", err)
	}
	if _, err := plain.Queue(Delta{}); err != nil {
		t.Errorf("in-memory Queue: %v", err)
	}
}
