package durable

// Package durable persists the serving index: versioned snapshot files
// plus a per-shard write-ahead journal of publish deltas, with recovery
// that survives kill -9 at any point.
//
// Layout under the data directory:
//
//	MANIFEST            format version, shard count, index spec (JSON)
//	shard-0000/
//	    snap-<epoch>.snap   versioned snapshot generations
//	    wal-<epoch>.wal     journal extending the same-epoch snapshot
//	shard-0001/ ...
//
// The MANIFEST is written last during initialization — it is the commit
// point; a directory without one is re-initialized from scratch. Each
// checkpoint writes a new snapshot generation and rotates the journal; the
// two newest generations are retained so a corrupt newest snapshot falls
// back to its predecessor and replays the full journal chain across both.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawl"
	"repro/internal/faultfs"
	"repro/internal/fragindex"
)

// crashPoint is the crash-injection seam the recovery tests drive: named
// points bracket every durability-critical step (journal append around its
// fsync, snapshot write, checkpoint rotation). In production it is a no-op
// closure; when DASH_CRASHPOINT=<name>:<n> is set in the environment, the
// n-th arrival at the named point dies on the spot — no deferred cleanup,
// no flushes — so the test harness can kill a child process at any chosen
// instant and assert recovery from exactly the bytes that had reached the
// filesystem.
var crashPoint = crashPointFromEnv(os.Getenv("DASH_CRASHPOINT"))

func crashPointFromEnv(spec string) func(string) {
	name, nstr, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return func(string) {}
	}
	n, err := strconv.Atoi(nstr)
	if err != nil || n < 1 {
		return func(string) {}
	}
	var hits atomic.Int64
	return func(point string) {
		if point == name && hits.Add(1) == int64(n) {
			// Exit without running any Go cleanup — the closest portable
			// stand-in for kill -9 (kernel-level file state is identical).
			os.Exit(137)
		}
	}
}

// SyncMode selects when journal appends reach stable storage.
type SyncMode string

const (
	// SyncAlways fsyncs every journal append before the publish swap: an
	// acknowledged apply is durable, full stop.
	SyncAlways SyncMode = "always"
	// SyncInterval batches fsyncs on a timer: acknowledged applies within
	// the last interval may be lost to a crash — the throughput trade.
	SyncInterval SyncMode = "interval"
)

// SyncPolicy configures journal durability.
type SyncPolicy struct {
	Mode SyncMode
	// Interval is the background fsync period for SyncInterval
	// (default 100ms); ignored by SyncAlways.
	Interval time.Duration
}

func (p SyncPolicy) withDefaults() (SyncPolicy, error) {
	if p.Mode == "" {
		p.Mode = SyncAlways
	}
	if p.Mode != SyncAlways && p.Mode != SyncInterval {
		return p, fmt.Errorf("durable: unknown sync mode %q (want %q or %q)", p.Mode, SyncAlways, SyncInterval)
	}
	if p.Interval <= 0 {
		p.Interval = 100 * time.Millisecond
	}
	return p, nil
}

const (
	manifestName   = "MANIFEST"
	manifestFormat = 1
	snapPrefix     = "snap-"
	snapSuffix     = ".snap"
	walPrefix      = "wal-"
	walSuffix      = ".wal"
	corruptSuffix  = ".corrupt"
	// keepSnapshots is the retained generation count: the newest snapshot
	// plus one fallback, with every journal covering them.
	keepSnapshots = 2
)

type manifest struct {
	Format    int      `json:"format"`
	Shards    int      `json:"shards"`
	SelAttrs  []string `json:"sel_attrs"`
	EqAttrs   []string `json:"eq_attrs"`
	RangeAttr string   `json:"range_attr,omitempty"`
}

// ErrNotInitialized marks a data directory with no committed MANIFEST.
var ErrNotInitialized = errors.New("durable: data dir not initialized")

// ErrStaleCheckpoint refuses a checkpoint dump taken before the shard's
// durable epoch: a record acknowledged after the dump would be left in
// the rotated-out journal, unreachable from the new generation's cursor.
var ErrStaleCheckpoint = errors.New("durable: checkpoint dump is behind the durable epoch")

// RecoveryInfo reports what recovering one shard took.
type RecoveryInfo struct {
	Shard int `json:"shard"`
	// SnapshotEpoch is the epoch of the snapshot generation that loaded.
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// Fallback is true when the newest snapshot failed verification and an
	// older generation served instead.
	Fallback         bool `json:"fallback"`
	CorruptSnapshots int  `json:"corrupt_snapshots,omitempty"`
	ReplayedRecords  int  `json:"replayed_records"`
	// TruncatedTail is true when a torn final journal record was cut.
	TruncatedTail bool `json:"truncated_tail,omitempty"`
	// FinalEpoch is the epoch the shard serves at after replay — the last
	// acknowledged durable publish.
	FinalEpoch uint64 `json:"final_epoch"`
}

// Stats is the durability report surfaced through admin stats.
type Stats struct {
	Dir                 string         `json:"dir"`
	Shards              int            `json:"shards"`
	SyncMode            string         `json:"sync_mode"`
	SyncIntervalMS      int64          `json:"sync_interval_ms,omitempty"`
	JournalBytes        int64          `json:"journal_bytes"`
	JournalRecords      uint64         `json:"journal_records"`
	Checkpoints         uint64         `json:"checkpoints"`
	LastCheckpointEpoch uint64         `json:"last_checkpoint_epoch"`
	Recovered           bool           `json:"recovered"`
	Recovery            []RecoveryInfo `json:"recovery,omitempty"`
	// SyncFailures counts background fsync sweeps that failed under
	// SyncInterval; LastSyncError is the most recent failure. Non-zero
	// means recently acknowledged applies may not be durable yet.
	SyncFailures  uint64 `json:"sync_failures,omitempty"`
	LastSyncError string `json:"last_sync_error,omitempty"`
	// State is the durability state machine's current state ("healthy"
	// or "degraded"), with its transition and retry counters.
	State               string `json:"state"`
	ConsecutiveFailures uint64 `json:"consecutive_failures,omitempty"`
	Degradations        uint64 `json:"degradations,omitempty"`
	Recoveries          uint64 `json:"recoveries,omitempty"`
	Retries             uint64 `json:"retries,omitempty"`
	Probes              uint64 `json:"probes,omitempty"`
	ProbeFailures       uint64 `json:"probe_failures,omitempty"`
	LastFault           string `json:"last_fault,omitempty"`
	// NextProbeInMS is how long until the prober re-tests the data dir
	// (0 while healthy) — what degraded-mode Retry-After derives from.
	NextProbeInMS int64 `json:"next_probe_in_ms,omitempty"`
	DegradedForMS int64 `json:"degraded_for_ms,omitempty"`
	// PerShard enumerates each shard's durable epoch and on-disk segment
	// generations — what the replication surface and bounded-staleness
	// router consume.
	PerShard []ShardDurability `json:"per_shard,omitempty"`
}

// Store owns one data directory: per-shard snapshot generations and open
// journals. Append and Checkpoint are safe for concurrent use across
// shards; within a shard they serialize on the shard lock.
type Store struct {
	dir    string
	policy SyncPolicy
	fs     faultfs.FS
	retry  RetryPolicy

	man    *manifest
	shards []*shardStore

	recovered bool
	recovery  []RecoveryInfo

	checkpoints atomic.Uint64
	lastCkpt    atomic.Uint64

	// syncFailures counts background fsync sweeps that failed;
	// lastSyncErr holds the most recent failure's message. A failing
	// interval sweep narrows the durability window silently, so the
	// condition is surfaced through Stats rather than dropped.
	syncFailures atomic.Uint64
	lastSyncErr  atomic.Value // string

	// Durability state machine (see health.go). consecFails counts
	// consecutive failed appends/checkpoints after their retries;
	// sweepConsec the interval-sync sweeps; either crossing
	// RetryPolicy.FailureThreshold trips degraded mode.
	closed       atomic.Bool
	degraded     atomic.Bool
	consecFails  atomic.Uint64
	sweepConsec  atomic.Uint64
	degradations atomic.Uint64
	recoveries   atomic.Uint64
	retries      atomic.Uint64
	probes       atomic.Uint64
	probeFails   atomic.Uint64
	lastFault    atomic.Value // string
	nextProbeAt  atomic.Int64 // unixnano; 0 while healthy
	degradedAt   atomic.Int64 // unixnano; 0 while healthy
	probeWake    chan struct{}
	baseline     atomic.Value // BaselineFunc

	syncOnce   sync.Once
	proberOnce sync.Once
	closeOnce  sync.Once
	stop       chan struct{}
	wg         sync.WaitGroup
}

type shardStore struct {
	mu  sync.Mutex
	dir string
	j   *journal

	// lastEpoch is the shard's durable epoch: the epoch of the last
	// acknowledged journal record (or the journal base after a checkpoint
	// ran ahead of it). tailWatch, when non-nil, is closed on every
	// advance so long-poll tail readers wake without polling. Both are
	// guarded by mu.
	lastEpoch uint64
	tailWatch chan struct{}
}

// advanceEpochLocked moves the shard's durable epoch forward (never back)
// and wakes any tail waiters. Caller holds ss.mu.
func (ss *shardStore) advanceEpochLocked(e uint64) {
	if e <= ss.lastEpoch {
		return
	}
	ss.lastEpoch = e
	if ss.tailWatch != nil {
		close(ss.tailWatch)
		ss.tailWatch = nil
	}
}

// IsInitialized reports whether dir holds a committed data directory (a
// MANIFEST exists). Callers use it to decide between seeding a fresh
// directory with a built index and recovering the persisted one.
//
//lint:ignore ctxfirst single metadata stat probe; there is no blocking work a context could usefully cancel
func IsInitialized(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Options carries the optional knobs OpenWith accepts beyond the sync
// policy. The zero value is the production default.
type Options struct {
	// FS is the filesystem seam every data-dir operation goes through
	// (faultfs.OS when nil); chaos tests substitute a fault injector.
	FS faultfs.FS
	// Retry tunes durability retry/backoff and degraded-mode probing.
	Retry RetryPolicy
}

// Open opens (or creates) a data directory. A directory without a
// committed MANIFEST comes back fresh: NumShards reports 0 and Init must
// seed it before appends. An initialized directory is ready for Recover.
func Open(ctx context.Context, dir string, policy SyncPolicy) (*Store, error) {
	return OpenWith(ctx, dir, policy, Options{})
}

// OpenWith is Open with explicit Options (filesystem seam, retry policy).
func OpenWith(ctx context.Context, dir string, policy SyncPolicy, opts Options) (*Store, error) {
	policy, err := policy.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		policy:    policy,
		fs:        fsys,
		retry:     opts.Retry.withDefaults(),
		probeWake: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	b, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("durable: corrupt MANIFEST: %v", err)
	}
	if man.Format != manifestFormat {
		return nil, fmt.Errorf("durable: unsupported MANIFEST format %d", man.Format)
	}
	if man.Shards < 1 {
		return nil, fmt.Errorf("durable: corrupt MANIFEST: shard count %d", man.Shards)
	}
	s.man = &man
	s.shards = make([]*shardStore, man.Shards)
	for i := range s.shards {
		s.shards[i] = &shardStore{dir: s.shardDir(i)}
	}
	return s, nil
}

// Fresh reports whether the directory still needs Init.
func (s *Store) Fresh() bool { return s.man == nil }

// NumShards returns the committed shard count (0 while fresh). A data
// directory pins its topology: reopening must serve the same shard count
// it journaled, since routing is part of what the per-shard files mean.
func (s *Store) NumShards() int {
	if s.man == nil {
		return 0
	}
	return s.man.Shards
}

// Spec returns the committed index spec (zero while fresh).
func (s *Store) Spec() fragindex.Spec {
	if s.man == nil {
		return fragindex.Spec{}
	}
	return fragindex.Spec{
		SelAttrs:  s.man.SelAttrs,
		EqAttrs:   s.man.EqAttrs,
		RangeAttr: s.man.RangeAttr,
	}
}

func (s *Store) shardDir(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%04d", i))
}

func snapName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, epoch, snapSuffix)
}

func walName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, epoch, walSuffix)
}

// Init seeds a fresh directory: one snapshot + empty journal per dump
// (dump order is shard order), then the MANIFEST as commit point. Any
// half-written state from a previously interrupted Init is wiped first —
// without a MANIFEST nothing was ever acknowledged from this directory.
func (s *Store) Init(ctx context.Context, dumps []*fragindex.Dump) error {
	if s.man != nil {
		return fmt.Errorf("durable: %s is already initialized", s.dir)
	}
	if len(dumps) == 0 {
		return fmt.Errorf("durable: Init with no shard dumps")
	}
	shards := make([]*shardStore, len(dumps))
	for i, d := range dumps {
		// A cancellation between shards leaves no MANIFEST, so the
		// directory stays fresh and a later Init rewipes it.
		if err := ctx.Err(); err != nil {
			return err
		}
		sd := s.shardDir(i)
		if err := s.fs.RemoveAll(sd); err != nil {
			return err
		}
		if err := s.fs.MkdirAll(sd, 0o755); err != nil {
			return err
		}
		if err := writeSnapshot(ctx, s.fs, filepath.Join(sd, snapName(d.Epoch)), d); err != nil {
			return err
		}
		j, err := createJournal(s.fs, filepath.Join(sd, walName(d.Epoch)), d.Epoch)
		if err != nil {
			return err
		}
		if err := syncDir(s.fs, sd); err != nil {
			return err
		}
		shards[i] = &shardStore{dir: sd, j: j, lastEpoch: d.Epoch}
	}
	man := &manifest{
		Format:    manifestFormat,
		Shards:    len(dumps),
		SelAttrs:  dumps[0].SelAttrs,
		EqAttrs:   dumps[0].EqAttrs,
		RangeAttr: dumps[0].RangeAttr,
	}
	if err := s.writeManifest(man); err != nil {
		return err
	}
	s.man = man
	s.shards = shards
	s.lastCkpt.Store(maxDumpEpoch(dumps))
	s.startSyncLoop()
	s.startProber()
	return nil
}

func maxDumpEpoch(dumps []*fragindex.Dump) uint64 {
	var e uint64
	for _, d := range dumps {
		if d.Epoch > e {
			e = d.Epoch
		}
	}
	return e
}

func (s *Store) writeManifest(man *manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	if err := s.fs.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := s.fs.Open(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		//lint:ignore droppederr already failing: the sync error is returned; close is best-effort cleanup of the temp fd
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(s.fs, s.dir)
}

// Recover rebuilds every shard's index: newest verifiable snapshot (with
// fallback to the previous generation on corruption), then the journal
// chain replayed in epoch order, with a torn final record truncated away.
// On success the journals are open for appends and the returned builders
// (in shard order) serve exactly the last acknowledged durable publish.
// Unrecoverable corruption — every snapshot generation bad, a journal
// record damaged mid-chain, a replay that cannot apply — returns an error
// and the store must not serve.
func (s *Store) Recover(ctx context.Context) ([]*fragindex.Index, []RecoveryInfo, error) {
	if s.man == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotInitialized, s.dir)
	}
	if s.recovered {
		return nil, nil, fmt.Errorf("durable: %s already recovered", s.dir)
	}
	idxs := make([]*fragindex.Index, len(s.shards))
	infos := make([]RecoveryInfo, len(s.shards))
	for i := range s.shards {
		// Replay can be long (the whole retained journal chain); a
		// cancellation between shards aborts recovery with nothing
		// served and the on-disk state untouched.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		idx, info, err := s.recoverShard(ctx, i)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: shard %d: %w", i, err)
		}
		idxs[i] = idx
		infos[i] = info
	}
	s.recovered = true
	s.recovery = infos
	var maxSnap uint64
	for _, info := range infos {
		if info.SnapshotEpoch > maxSnap {
			maxSnap = info.SnapshotEpoch
		}
	}
	s.lastCkpt.Store(maxSnap)
	s.startSyncLoop()
	s.startProber()
	return idxs, infos, nil
}

// gen is one generation file (snapshot or journal) keyed by epoch.
type gen struct {
	epoch uint64
	path  string
}

func listGens(fsys faultfs.FS, dir, prefix, suffix string) ([]gen, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []gen
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		epoch, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
		if err != nil {
			continue
		}
		out = append(out, gen{epoch: epoch, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
	return out, nil
}

// sweepTemps removes stale temp files a crash mid-write left behind.
func sweepTemps(fsys faultfs.FS, dir string) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			//lint:ignore droppederr best-effort cleanup of crash leftovers; a stale temp file is harmless and reswept next recovery
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

func (s *Store) recoverShard(ctx context.Context, i int) (*fragindex.Index, RecoveryInfo, error) {
	ss := s.shards[i]
	info := RecoveryInfo{Shard: i}
	sweepTemps(s.fs, ss.dir)

	snaps, err := listGens(s.fs, ss.dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, info, err
	}
	if len(snaps) == 0 {
		return nil, info, fmt.Errorf("%w: no snapshot generations", ErrCorruptSnapshot)
	}
	// Newest verifiable snapshot wins; a corrupt generation is set aside
	// (renamed for post-mortem) and the previous one tried.
	var idx *fragindex.Index
	var snapEpoch uint64
	var snapErrs []error
	for k := len(snaps) - 1; k >= 0; k-- {
		d, rerr := readSnapshot(ctx, s.fs, snaps[k].path)
		if rerr == nil {
			var built *fragindex.Index
			if built, rerr = fragindex.Restore(d); rerr == nil {
				idx = built
				snapEpoch = d.Epoch
				break
			}
		}
		snapErrs = append(snapErrs, rerr)
		info.CorruptSnapshots++
		//lint:ignore droppederr best-effort post-mortem set-aside; if the rename fails the corrupt file is simply retried (and re-rejected) next recovery
		s.fs.Rename(snaps[k].path, snaps[k].path+corruptSuffix)
	}
	if idx == nil {
		return nil, info, fmt.Errorf("unrecoverable: every snapshot generation failed verification: %v", errors.Join(snapErrs...))
	}
	info.SnapshotEpoch = snapEpoch
	info.Fallback = info.CorruptSnapshots > 0

	// Replay the whole retained journal chain in ascending epoch order,
	// skipping records the snapshot already contains. Only the newest
	// journal may carry a torn tail; older journals were sealed by the
	// checkpoint that rotated them.
	wals, err := listGens(s.fs, ss.dir, walPrefix, walSuffix)
	if err != nil {
		return nil, info, err
	}
	cur := snapEpoch
	for k, w := range wals {
		newest := k == len(wals)-1
		scan, serr := readJournal(s.fs, w.path, newest)
		if serr != nil {
			return nil, info, serr
		}
		for _, rec := range scan.records {
			if rec.epoch <= cur {
				continue
			}
			// Journaled deltas folded successfully before they were
			// written, so a replay failure means the journal does not
			// match the snapshot chain.
			if _, aerr := idx.Fold(ctx, rec.delta.Changes); aerr != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, info, cerr
				}
				return nil, info, fmt.Errorf("%w: %s: replaying epoch %d: %v",
					ErrCorruptJournal, filepath.Base(w.path), rec.epoch, aerr)
			}
			cur = rec.epoch
			info.ReplayedRecords++
		}
		if !newest {
			continue
		}
		// Seal the tail: cut a torn suffix, then reopen for appends.
		if scan.torn {
			info.TruncatedTail = true
		}
		if scan.validSize < walHeaderSize {
			// Torn during creation — recreate with the epoch from its name.
			j, jerr := createJournal(s.fs, w.path, w.epoch)
			if jerr != nil {
				return nil, info, jerr
			}
			ss.j = j
		} else {
			if scan.torn {
				if terr := s.fs.Truncate(w.path, scan.validSize); terr != nil {
					return nil, info, terr
				}
			}
			j, jerr := openJournal(s.fs, w.path, scan)
			if jerr != nil {
				return nil, info, jerr
			}
			if scan.torn {
				if serr := j.f.Sync(); serr != nil {
					//lint:ignore droppederr already failing: the sync error aborts recovery; close is best-effort fd cleanup
					j.f.Close()
					return nil, info, serr
				}
			}
			ss.j = j
		}
	}
	if ss.j == nil {
		// No journal survived (possible only through external deletion);
		// open a fresh one at the recovered epoch so appends can proceed.
		j, jerr := createJournal(s.fs, filepath.Join(ss.dir, walName(cur)), cur)
		if jerr != nil {
			return nil, info, jerr
		}
		ss.j = j
	}
	if err := syncDir(s.fs, ss.dir); err != nil {
		return nil, info, err
	}
	idx.SetEpoch(cur)
	info.FinalEpoch = cur
	ss.advanceEpochLocked(cur)
	return idx, info, nil
}

// Append journals one publish's folded delta for a shard — the write-ahead
// half of the publish hook. Under SyncAlways the record is on stable
// storage when Append returns. The ctx is checked before any bytes are
// written: past that point the append runs to completion, because a
// half-written record would read as a torn tail on recovery.
//
// Transient failures retry in place per the store's RetryPolicy; a
// degraded store fails fast with ErrDegraded and a closed one with
// ErrClosed (see health.go for the state machine).
func (s *Store) Append(ctx context.Context, shard int, del crawl.Delta, epoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return fmt.Errorf("%w: append to shard %d", ErrClosed, shard)
	}
	if err := s.DegradedErr(); err != nil {
		return err
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.j == nil {
		return fmt.Errorf("%w: shard %d has no open journal", ErrClosed, shard)
	}
	err := s.withRetry(ctx, func() error {
		return ss.j.append(del, epoch, s.policy.Mode == SyncAlways)
	})
	if err == nil {
		ss.advanceEpochLocked(epoch)
	}
	return err
}

// Checkpoint writes a shard's current state as a new snapshot generation,
// rotates its journal, and prunes generations beyond the retained two.
// A checkpoint at the journal's own base epoch (nothing published since
// the last one) is a no-op. A dump behind the shard's durable epoch is
// refused with ErrStaleCheckpoint: the dump must be cut with appends held
// off (the dash handle dumps and checkpoints under the shard's writer
// lock), or records acknowledged after it would be stranded.
//
// Appends for the shard block for the duration; the write-ahead contract
// is never relaxed mid-checkpoint. Crash-safe at every step: the snapshot
// appears atomically, the old journal stays replayable until pruning, and
// pruning never touches the retained generations.
//
// Transient failures retry per the store's RetryPolicy; a degraded store
// fails fast with ErrDegraded and a closed one with ErrClosed.
func (s *Store) Checkpoint(ctx context.Context, shard int, d *fragindex.Dump) error {
	if s.closed.Load() {
		return fmt.Errorf("%w: checkpoint of shard %d", ErrClosed, shard)
	}
	if err := s.DegradedErr(); err != nil {
		return err
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.j == nil {
		return fmt.Errorf("%w: shard %d has no open journal", ErrClosed, shard)
	}
	if d.Epoch < ss.lastEpoch {
		return fmt.Errorf("%w: shard %d dump at epoch %d, durable epoch %d",
			ErrStaleCheckpoint, shard, d.Epoch, ss.lastEpoch)
	}
	return s.withRetry(ctx, func() error {
		return s.checkpointLocked(ctx, ss, d, false)
	})
}

// NeedsCheckpoint reports whether Checkpoint of the shard at epoch has
// anything to do. It is false only when Checkpoint would succeed as a
// no-op: nothing was journaled since the last checkpoint, epoch has not
// moved past it, and the store is neither closed nor degraded (those
// report their error from Checkpoint). Callers consult it before building
// an O(index) dump.
func (s *Store) NeedsCheckpoint(shard int, epoch uint64) bool {
	if s.closed.Load() || s.DegradedErr() != nil {
		return true
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.j == nil || epoch > ss.j.baseEpoch || len(ss.j.index) > 0
}

// checkpointLocked is the checkpoint body, shard lock held. Forced mode
// (degraded-mode recovery) skips the no-op guard, recreates the journal
// even at an unchanged epoch, and tolerates close failures on the
// outgoing journal — the snapshot just written supersedes its records.
func (s *Store) checkpointLocked(ctx context.Context, ss *shardStore, d *fragindex.Dump, force bool) error {
	if !force && d.Epoch <= ss.j.baseEpoch && len(ss.j.index) == 0 {
		return nil
	}
	if err := writeSnapshot(ctx, s.fs, filepath.Join(ss.dir, snapName(d.Epoch)), d); err != nil {
		return err
	}
	crashPoint("checkpoint.after-snapshot")
	walPath := filepath.Join(ss.dir, walName(d.Epoch))
	old := ss.j
	if force && walPath == old.path {
		// Nothing was acknowledged past the last checkpoint, so the fresh
		// journal reuses the old one's name: close the old fd before
		// recreating the file under it. ss.j keeps pointing at the stale
		// journal until the new one is adopted; mutations are fail-fast
		// degraded for the duration.
		//lint:ignore droppederr forced rotation recreates this very file and the snapshot above supersedes its records; a close failure must not block recovery
		old.close()
		old = nil
	}
	nj, err := createJournal(s.fs, walPath, d.Epoch)
	if err != nil {
		return err
	}
	if err := syncDir(s.fs, ss.dir); err != nil {
		//lint:ignore droppederr already failing: the directory-sync error is returned; close is best-effort cleanup of the unadopted journal
		nj.f.Close()
		return err
	}
	ss.j = nj
	if old != nil {
		if cerr := old.close(); cerr != nil {
			if !force {
				return cerr
			}
			s.lastFault.Store(cerr.Error())
		}
	}
	crashPoint("checkpoint.before-prune")
	if err := pruneGenerations(s.fs, ss.dir); err != nil {
		return err
	}
	ss.advanceEpochLocked(d.Epoch)
	s.checkpoints.Add(1)
	for {
		cur := s.lastCkpt.Load()
		if d.Epoch <= cur || s.lastCkpt.CompareAndSwap(cur, d.Epoch) {
			break
		}
	}
	return nil
}

// pruneGenerations removes snapshot generations beyond the newest
// keepSnapshots and every journal older than the oldest retained
// snapshot (the journal chain must reach back to any snapshot recovery
// may fall back to).
func pruneGenerations(fsys faultfs.FS, dir string) error {
	snaps, err := listGens(fsys, dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	if len(snaps) <= keepSnapshots {
		return nil
	}
	oldestKept := snaps[len(snaps)-keepSnapshots].epoch
	for _, g := range snaps[:len(snaps)-keepSnapshots] {
		if err := fsys.Remove(g.path); err != nil {
			return err
		}
	}
	wals, err := listGens(fsys, dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	for _, g := range wals {
		if g.epoch < oldestKept {
			if err := fsys.Remove(g.path); err != nil {
				return err
			}
		}
	}
	return syncDir(fsys, dir)
}

// Sync flushes every shard's unsynced journal appends — the interval
// policy's sweep, also usable as an explicit barrier.
func (s *Store) Sync() error {
	for _, ss := range s.shards {
		ss.mu.Lock()
		err := error(nil)
		if ss.j != nil {
			err = ss.j.sync()
		}
		ss.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs one background fsync pass, recording rather than dropping a
// failure: a failed sweep means applies acknowledged under SyncInterval
// within the window are not yet durable, which operators must be able to
// see (Stats.SyncFailures / Stats.LastSyncError).
func (s *Store) sweep() {
	if err := s.Sync(); err != nil {
		s.syncFailures.Add(1)
		s.lastSyncErr.Store(err.Error())
		s.sweepFailed(err)
	} else {
		s.sweepConsec.Store(0)
	}
}

func (s *Store) startSyncLoop() {
	if s.policy.Mode != SyncInterval {
		return
	}
	s.syncOnce.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(s.policy.Interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.sweep()
				}
			}
		}()
	})
}

// Recovery returns the per-shard recovery report (nil when the directory
// was freshly initialized).
func (s *Store) Recovery() []RecoveryInfo { return s.recovery }

// Stats reports journal sizes and checkpoint/recovery counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Dir:                 s.dir,
		Shards:              s.NumShards(),
		SyncMode:            string(s.policy.Mode),
		Checkpoints:         s.checkpoints.Load(),
		LastCheckpointEpoch: s.lastCkpt.Load(),
		Recovered:           s.recovered,
		Recovery:            s.recovery,
		SyncFailures:        s.syncFailures.Load(),
	}
	if msg, ok := s.lastSyncErr.Load().(string); ok {
		st.LastSyncError = msg
	}
	if s.policy.Mode == SyncInterval {
		st.SyncIntervalMS = s.policy.Interval.Milliseconds()
	}
	st.State = string(s.State())
	st.ConsecutiveFailures = s.consecFails.Load()
	st.Degradations = s.degradations.Load()
	st.Recoveries = s.recoveries.Load()
	st.Retries = s.retries.Load()
	st.Probes = s.probes.Load()
	st.ProbeFailures = s.probeFails.Load()
	if msg, ok := s.lastFault.Load().(string); ok {
		st.LastFault = msg
	}
	st.NextProbeInMS = s.NextProbeIn().Milliseconds()
	if at := s.degradedAt.Load(); at != 0 {
		st.DegradedForMS = time.Since(time.Unix(0, at)).Milliseconds()
	}
	for i, ss := range s.shards {
		ss.mu.Lock()
		if ss.j != nil {
			st.JournalBytes += ss.j.size
			st.JournalRecords += uint64(len(ss.j.index))
		}
		ss.mu.Unlock()
		st.PerShard = append(st.PerShard, s.ShardDurability(i))
	}
	return st
}

// Close stops the sync loop and closes every journal, flushing unsynced
// appends first. The store must not be used afterwards.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.stop)
		s.wg.Wait()
		for _, ss := range s.shards {
			ss.mu.Lock()
			if ss.j != nil {
				if cerr := ss.j.close(); cerr != nil && err == nil {
					err = cerr
				}
				ss.j = nil
			}
			ss.mu.Unlock()
		}
	})
	return err
}
