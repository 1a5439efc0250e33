package durable

// Tests for the replication cursor API: durable epochs, tail chunks,
// truncation after pruning, the long-poll primitive, and the frame codec.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/faultfs"
	"repro/internal/fragindex"
)

// seedTailStore initializes a one-shard store from a 4-fragment index and
// returns it with the seed epoch (the journal base).
func seedTailStore(t *testing.T, dir string) (*Store, uint64) {
	t.Helper()
	idx := smallIndex(t, 4)
	st, _ := openStore(t, dir, SyncPolicy{})
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return st, idx.Dump().Epoch
}

// appendN appends n single-insert deltas with consecutive epochs after
// base and returns them in order.
func appendN(t *testing.T, st *Store, base uint64, n int, tag string) []crawl.Delta {
	t.Helper()
	out := make([]crawl.Delta, 0, n)
	for i := 0; i < n; i++ {
		d := insDelta(fid(tag, int64(i)), map[string]int64{fmt.Sprintf("%s%d", tag, i): 1}, 1)
		if err := st.Append(context.Background(), 0, d, base+uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestDurableEpochAdvances: Init seeds the durable epoch at the journal
// base; every Append advances it to the record's epoch.
func TestDurableEpochAdvances(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()
	if e, err := st.DurableEpoch(0); err != nil || e != seed {
		t.Fatalf("seed durable epoch = %d, %v; want %d", e, err, seed)
	}
	appendN(t, st, seed, 3, "t")
	if e, _ := st.DurableEpoch(0); e != seed+3 {
		t.Fatalf("post-append durable epoch = %d, want %d", e, seed+3)
	}
	if _, err := st.DurableEpoch(7); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestTailFromStream: TailFrom returns exactly the records past the
// cursor, oldest first, and the decoded frames reproduce the appended
// deltas byte-for-byte; a caught-up cursor returns an empty chunk whose
// DurableEpoch equals the cursor.
func TestTailFromStream(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()
	deltas := appendN(t, st, seed, 3, "s")

	chunk, err := st.TailFrom(context.Background(), 0, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 3 || chunk.Next != seed+3 || chunk.DurableEpoch != seed+3 {
		t.Fatalf("chunk = %+v", chunk)
	}
	recs, err := ParseTailFrames(chunk.Frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Epoch != seed+uint64(i)+1 {
			t.Errorf("record %d epoch %d, want %d", i, rec.Epoch, seed+uint64(i)+1)
		}
		if !reflect.DeepEqual(rec.Delta, deltas[i]) {
			t.Errorf("record %d delta diverged:\ngot  %+v\nwant %+v", i, rec.Delta, deltas[i])
		}
	}

	// A mid-stream cursor skips what it already covers.
	chunk, err = st.TailFrom(context.Background(), 0, seed+2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 1 || chunk.Next != seed+3 {
		t.Fatalf("mid-cursor chunk = %+v", chunk)
	}

	// Caught up: empty chunk, cursor unchanged.
	chunk, err = st.TailFrom(context.Background(), 0, seed+3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Records != 0 || chunk.Next != seed+3 || chunk.DurableEpoch != seed+3 {
		t.Fatalf("caught-up chunk = %+v", chunk)
	}
}

// TestTailFromMaxBytes: a tiny byte budget still ships at least one
// record per chunk, and chaining chunks by Next drains the stream.
func TestTailFromMaxBytes(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()
	appendN(t, st, seed, 5, "b")

	got := 0
	cursor := seed
	for i := 0; i < 10 && got < 5; i++ {
		chunk, err := st.TailFrom(context.Background(), 0, cursor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Records < 1 {
			t.Fatalf("budget starved the chunk at cursor %d", cursor)
		}
		got += chunk.Records
		cursor = chunk.Next
	}
	if got != 5 || cursor != seed+5 {
		t.Fatalf("drained %d records to cursor %d, want 5 to %d", got, cursor, seed+5)
	}
}

// TestTailSpansRotation: a checkpoint rotates the journal; a cursor from
// before the rotation still streams the full record sequence across both
// retained journal files.
func TestTailSpansRotation(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	seed := idx.Dump().Epoch

	var want []uint64
	for k := 0; k < 3; k++ {
		d := insDelta(fid("pre", int64(k)), map[string]int64{"pre": 1}, 1)
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
		want = append(want, epoch)
	}
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		d := insDelta(fid("post", int64(k)), map[string]int64{"post": 1}, 1)
		epoch := applyTracked(t, track, d)
		if err := st.Append(context.Background(), 0, d, epoch); err != nil {
			t.Fatal(err)
		}
		want = append(want, epoch)
	}

	chunk, err := st.TailFrom(context.Background(), 0, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ParseTailFrames(chunk.Frames)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, rec := range recs {
		got = append(got, rec.Epoch)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epochs across rotation = %v, want %v", got, want)
	}
}

// TestTailTruncatedAfterPrune: once checkpoint retention prunes the
// journals a stale cursor needs, TailFrom reports ErrTailTruncated — the
// signal that forces a replica re-bootstrap.
func TestTailTruncatedAfterPrune(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	seed := idx.Dump().Epoch

	// keepSnapshots generations plus one: the seed journal must be pruned.
	for round := 0; round <= keepSnapshots+1; round++ {
		for k := 0; k < 2; k++ {
			d := insDelta(fid("r", int64(round*10+k)), map[string]int64{"r": 1}, 1)
			epoch := applyTracked(t, track, d)
			if err := st.Append(context.Background(), 0, d, epoch); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.TailFrom(context.Background(), 0, seed, 0); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("stale cursor error = %v, want ErrTailTruncated", err)
	}
	// The current epoch still tails fine.
	cur, _ := st.DurableEpoch(0)
	if _, err := st.TailFrom(context.Background(), 0, cur, 0); err != nil {
		t.Fatalf("fresh cursor failed: %v", err)
	}
}

// TestTailOpenSegmentExtentGuard: garbage appended to the open journal
// file past the acknowledged extent (what a torn or poisoned append
// leaves behind) is invisible to TailFrom — replicas only ever see
// acknowledged records.
func TestTailOpenSegmentExtentGuard(t *testing.T) {
	dir := t.TempDir()
	st, seed := seedTailStore(t, dir)
	defer st.Close()
	appendN(t, st, seed, 2, "g")

	// Find the open journal and append garbage directly, bypassing the
	// store — simulating a failed append's partial write.
	sd := st.ShardDurability(0)
	if len(sd.Journals) == 0 {
		t.Fatal("no journals listed")
	}
	var open SegmentInfo
	for _, j := range sd.Journals {
		if j.Open {
			open = j
		}
	}
	if !open.Open {
		t.Fatal("no open journal in inventory")
	}
	path := filepath.Join(dir, "shard-0000", walName(open.Epoch))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage past the acknowledged extent")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	chunk, err := st.TailFrom(context.Background(), 0, seed, 0)
	if err != nil {
		t.Fatalf("tail over dirty suffix failed: %v", err)
	}
	if chunk.Records != 2 {
		t.Fatalf("chunk shipped %d records, want 2", chunk.Records)
	}
	if _, err := ParseTailFrames(chunk.Frames); err != nil {
		t.Fatalf("frames corrupted by unacknowledged bytes: %v", err)
	}
}

// TestWaitForEpoch: the long-poll primitive wakes on an append, times out
// quietly when nothing happens, and honors ctx cancellation.
func TestWaitForEpoch(t *testing.T) {
	st, seed := seedTailStore(t, t.TempDir())
	defer st.Close()

	// Timeout path: no append, short wait, current epoch back, no error.
	e, err := st.WaitForEpoch(context.Background(), 0, seed, 20*time.Millisecond)
	if err != nil || e != seed {
		t.Fatalf("timeout wait = %d, %v; want %d, nil", e, err, seed)
	}

	// Wake path: an append lands while a waiter is parked.
	done := make(chan struct{})
	var woke uint64
	var werr error
	go func() {
		defer close(done)
		woke, werr = st.WaitForEpoch(context.Background(), 0, seed, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	appendN(t, st, seed, 1, "w")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke on append")
	}
	if werr != nil || woke != seed+1 {
		t.Fatalf("woken wait = %d, %v; want %d, nil", woke, werr, seed+1)
	}

	// Cancellation path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.WaitForEpoch(ctx, 0, seed+1, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait error = %v", err)
	}
}

// TestShardDurabilityInventory: Stats' per-shard block reports the
// durable epoch and the live segment inventory, marking the open journal.
func TestShardDurabilityInventory(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	d := insDelta(fid("x", 1), map[string]int64{"x": 1}, 1)
	epoch := applyTracked(t, track, d)
	if err := st.Append(context.Background(), 0, d, epoch); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(context.Background(), 0, track.Dump()); err != nil {
		t.Fatal(err)
	}

	full := st.Stats()
	if len(full.PerShard) != 1 {
		t.Fatalf("PerShard count = %d", len(full.PerShard))
	}
	sd := full.PerShard[0]
	if sd.Error != "" {
		t.Fatalf("inventory error: %s", sd.Error)
	}
	if sd.DurableEpoch != epoch {
		t.Errorf("durable epoch %d, want %d", sd.DurableEpoch, epoch)
	}
	if len(sd.Snapshots) != 2 {
		t.Errorf("snapshot inventory %+v, want seed + checkpoint", sd.Snapshots)
	}
	opens := 0
	for _, j := range sd.Journals {
		if j.Open {
			opens++
		}
		if j.Size == 0 {
			t.Errorf("journal %+v reports zero size", j)
		}
	}
	if opens != 1 {
		t.Errorf("%d open journals in inventory, want 1", opens)
	}
}

// TestOpenSnapshotServesBytes: OpenSnapshot hands back the exact on-disk
// generation — decoding what it serves reproduces the checkpoint dump.
func TestOpenSnapshotServesBytes(t *testing.T) {
	dir := t.TempDir()
	idx := smallIndex(t, 6)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(context.Background(), []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	gens, err := st.SnapshotGens(0)
	if err != nil || len(gens) != 1 {
		t.Fatalf("gens = %+v, %v", gens, err)
	}
	f, size, err := st.OpenSnapshot(0, gens[0].Epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		t.Fatal(err)
	}
	dump, err := DecodeSnapshot(b, "served")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dump, idx.Dump()) {
		t.Error("served snapshot decoded to a different dump")
	}
	if _, _, err := st.OpenSnapshot(0, gens[0].Epoch+999); err == nil {
		t.Error("nonexistent generation opened")
	}
}

// TestParseTailFramesRejectsDamage: every class of frame damage — torn
// header, torn payload, flipped byte, non-monotonic epochs — is an error,
// never a silent partial decode.
func TestParseTailFramesRejectsDamage(t *testing.T) {
	var buf []byte
	buf = AppendTailFrame(buf, 10, insDelta(fid("a", 1), map[string]int64{"x": 2}, 2))
	frameBoundary := len(buf) // a cut exactly here is a valid 1-frame stream
	buf = AppendTailFrame(buf, 12, rmDelta(fid("a", 1)))

	if recs, err := ParseTailFrames(buf); err != nil || len(recs) != 2 {
		t.Fatalf("clean parse = %d recs, %v", len(recs), err)
	}
	if recs, err := ParseTailFrames(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty parse = %d recs, %v", len(recs), err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if cut == frameBoundary {
			continue
		}
		if _, err := ParseTailFrames(buf[:cut]); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
	for i := 0; i < len(buf); i++ {
		dam := append([]byte(nil), buf...)
		dam[i] ^= 0x40
		if _, err := ParseTailFrames(dam); err == nil {
			t.Fatalf("flipped byte %d parsed cleanly", i)
		}
	}

	// Non-monotonic epochs: two individually valid frames out of order.
	var rev []byte
	rev = AppendTailFrame(rev, 12, rmDelta(fid("a", 1)))
	rev = AppendTailFrame(rev, 10, insDelta(fid("a", 1), map[string]int64{"x": 2}, 2))
	if _, err := ParseTailFrames(rev); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("epoch regression parsed: %v", err)
	}
}

// TestCheckpointBehindDurableEpochKeepsRecord replays the interleaving of
// a checkpoint racing an apply: the shard is dumped at E, an apply
// journals E+1, and only then does the checkpoint reach the store with
// the E dump. Accepting it would rotate the journal at E and strand the
// E+1 record in the rotated-out file, where a cursor at E no longer looks
// (TailFrom would report DurableEpoch E+1 with no records, which a
// replica reads as a record-free advance). The stale dump is refused, and
// the record stays reachable from E before and after a current
// checkpoint.
func TestCheckpointBehindDurableEpochKeepsRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(ctx, []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	d := insDelta(fid("race", 1), map[string]int64{"race": 1}, 1)
	e := applyTracked(t, track, d)
	if err := st.Append(ctx, 0, d, e); err != nil {
		t.Fatal(err)
	}
	stale := track.Dump() // cut at E
	d = updDelta(fid("race", 1), map[string]int64{"race": 2}, 2)
	next := applyTracked(t, track, d)
	if err := st.Append(ctx, 0, d, next); err != nil {
		t.Fatal(err)
	}

	reachable := func(when string) {
		t.Helper()
		chunk, err := st.TailFrom(ctx, 0, e, 0)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if chunk.Records != 1 || chunk.Next != next || chunk.DurableEpoch != next {
			t.Fatalf("%s: tail from %d = %d records to %d (durable %d), want the record at %d",
				when, e, chunk.Records, chunk.Next, chunk.DurableEpoch, next)
		}
	}
	err := st.Checkpoint(ctx, 0, stale)
	reachable("after the stale checkpoint")
	if !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("stale checkpoint error = %v, want ErrStaleCheckpoint", err)
	}
	if err := st.Checkpoint(ctx, 0, track.Dump()); err != nil {
		t.Fatal(err)
	}
	reachable("after a current checkpoint")
	if st.NeedsCheckpoint(0, next) {
		t.Error("NeedsCheckpoint true right after a checkpoint at the same epoch")
	}
}

// tailMixedDelta is the i-th record of the equivalence history: inserts,
// multi-keyword updates and multi-change deltas, so frames vary in size.
func tailMixedDelta(i int) crawl.Delta {
	counts := map[string]int64{"z": int64(i%4 + 1), fmt.Sprintf("k%d", i): 2}
	if i%3 == 0 {
		counts["a"], counts["m"] = 1, int64(i)
	}
	d := insDelta(fid("eq", int64(i)), counts, int64(len(counts)+i))
	if i%4 == 1 {
		d.Changes = append(d.Changes, insDelta(fid("eq2", int64(i)), map[string]int64{"y": 1}, 1).Changes...)
	}
	return d
}

// TestTailFromMatchesReencode: the record-offset tail (the open journal's
// cursors) ships exactly the bytes the decode/re-encode path produces, for
// every cursor and byte budget — across a journal rotation and with
// unacknowledged garbage past the open journal's extent — and both paths
// refuse a damaged served record with ErrCorruptJournal.
func TestTailFromMatchesReencode(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	idx := smallIndex(t, 4)
	track := cloneIndex(t, idx)
	st, _ := openStore(t, dir, SyncPolicy{})
	defer st.Close()
	if err := st.Init(ctx, []*fragindex.Dump{idx.Dump()}); err != nil {
		t.Fatal(err)
	}
	seed := idx.Dump().Epoch
	for i := 0; i < 12; i++ {
		d := tailMixedDelta(i)
		if err := st.Append(ctx, 0, d, applyTracked(t, track, d)); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := st.Checkpoint(ctx, 0, track.Dump()); err != nil {
				t.Fatal(err)
			}
		}
	}
	durableEpoch, _ := st.DurableEpoch(0)

	compare := func(when string) {
		t.Helper()
		for from := seed; from <= durableEpoch+1; from++ {
			for _, maxBytes := range []int{0, 1, 40, 90, 400} {
				budget := maxBytes
				if budget == 0 {
					budget = defaultTailBytes
				}
				got, gerr := st.TailFrom(ctx, 0, from, maxBytes)
				want, werr := st.tailChain(0, from, budget)
				if gerr != nil || werr != nil {
					t.Fatalf("%s: from %d max %d: errors %v / %v", when, from, maxBytes, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: from %d max %d:\noffset  %+v\nreencode %+v", when, from, maxBytes, got, want)
				}
			}
		}
	}
	compare("clean")

	// Unacknowledged bytes past the extent: a torn append's half record.
	sd := st.ShardDurability(0)
	open := sd.Journals[len(sd.Journals)-1]
	if !open.Open {
		t.Fatalf("newest journal %+v is not the open one", open)
	}
	path := filepath.Join(dir, "shard-0000", walName(open.Epoch))
	torn := AppendTailFrame(nil, durableEpoch+1, tailMixedDelta(99))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	compare("torn extent")

	// A damaged acknowledged record: every cursor that ships it fails.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[walHeaderSize+recHeaderSize+9] ^= 0x20 // inside the open journal's first payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.TailFrom(ctx, 0, open.Epoch, 0); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("damaged record served: err = %v", err)
	}
	if _, err := st.tailChain(0, open.Epoch, defaultTailBytes); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("re-encode path served a damaged record: err = %v", err)
	}
}

// TestTailFromReadFault: the record-offset tail reads through the
// filesystem seam, so an injected read fault surfaces as an error rather
// than a short or empty chunk.
func TestTailFromReadFault(t *testing.T) {
	ctx := context.Background()
	st, inj, track := openFaultStore(t, t.TempDir())
	defer st.Close()
	seed := track.Dump().Epoch
	for i := 0; i < 3; i++ {
		d := tailMixedDelta(i)
		if err := st.Append(ctx, 0, d, applyTracked(t, track, d)); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetRules(faultfs.Rule{Op: faultfs.OpRead, Path: walSuffix, Count: 1})
	if _, err := st.TailFrom(ctx, 0, seed, 0); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("tail under a read fault: err = %v, want an injected fault", err)
	}
	chunk, err := st.TailFrom(ctx, 0, seed, 0)
	if err != nil || chunk.Records != 3 {
		t.Fatalf("tail after the fault cleared = %+v, %v", chunk, err)
	}
}

// TestNeedsCheckpoint: a shard with nothing journaled since its last
// checkpoint, asked at that checkpoint's epoch, needs none — the dash
// handle skips building its dump. An append, a later epoch (a compaction
// bumps it without a record), or a closed store each answer true, so
// Checkpoint runs and does the work or reports the error.
func TestNeedsCheckpoint(t *testing.T) {
	ctx := context.Background()
	st, seed := seedTailStore(t, t.TempDir())
	if st.NeedsCheckpoint(0, seed) {
		t.Error("NeedsCheckpoint true for a fresh store at its seed epoch")
	}
	if !st.NeedsCheckpoint(0, seed+1) {
		t.Error("NeedsCheckpoint false for an epoch past the last checkpoint")
	}
	appendN(t, st, seed, 1, "n")
	if !st.NeedsCheckpoint(0, seed+1) {
		t.Error("NeedsCheckpoint false with a record journaled since the checkpoint")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !st.NeedsCheckpoint(0, seed) {
		t.Error("NeedsCheckpoint false on a closed store (Checkpoint must report ErrClosed)")
	}
	if err := st.Checkpoint(ctx, 0, smallIndex(t, 4).Dump()); !errors.Is(err, ErrClosed) {
		t.Errorf("checkpoint after close: %v", err)
	}
}
