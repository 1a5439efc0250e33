package durable

// Replication support: the durable layer already owns everything a read
// replica needs — epoch-stamped CRC-framed journal records and versioned
// snapshot generations — so this file exposes them as a cursor API the
// replication transport (internal/replic) serves over HTTP. Three ideas:
//
//   - The durable epoch of a shard is the epoch of its last acknowledged
//     journal record (or the journal base right after a checkpoint). It
//     advances under the shard lock and wakes long-poll tail waiters.
//   - TailFrom reads journal records strictly after a cursor epoch. A
//     cursor inside the open journal is served by record offset: the
//     journal indexes each acknowledged record, and only the suffix past
//     the cursor is read and shipped verbatim. The open journal is read
//     capped at its acknowledged extent, so bytes from a failed
//     (unacknowledged, possibly poisoned) append are never replicated.
//   - A cursor older than the oldest retained journal's base epoch is
//     unservable — pruning ate the history — and returns ErrTailTruncated
//     so the replica re-bootstraps from the newest snapshot generation.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/crawl"
	"repro/internal/faultfs"
)

// ErrTailTruncated reports a tail cursor that predates the oldest retained
// journal: checkpoint pruning removed the records between the cursor and
// the retained chain, so the only way forward is a fresh snapshot
// bootstrap.
var ErrTailTruncated = errors.New("durable: tail truncated: cursor predates retained journals")

// defaultTailBytes bounds one tail chunk when the caller does not.
const defaultTailBytes = 4 << 20

// SegmentInfo describes one on-disk generation file of a shard.
type SegmentInfo struct {
	Epoch    uint64 `json:"epoch"`
	Size     int64  `json:"size"`
	Open     bool   `json:"open,omitempty"`     // journal currently accepting appends
	Poisoned bool   `json:"poisoned,omitempty"` // unrepaired bytes past the acknowledged extent
}

// ShardDurability is one shard's durability state: its durable epoch and
// segment inventory. Surfaced through Stats.PerShard and the replication
// manifest.
type ShardDurability struct {
	Shard        int           `json:"shard"`
	DurableEpoch uint64        `json:"durable_epoch"`
	Snapshots    []SegmentInfo `json:"snapshots,omitempty"`
	Journals     []SegmentInfo `json:"journals,omitempty"`
	Error        string        `json:"error,omitempty"`
}

// TailRecord is one decoded replication frame: the epoch-stamped delta of
// one acknowledged publish.
type TailRecord struct {
	Epoch uint64
	Delta crawl.Delta
}

// TailChunk is one TailFrom result: zero or more codec frames, ready to
// ship verbatim, plus cursor bookkeeping.
type TailChunk struct {
	// Frames holds Records frames in the journal record codec
	// (length + CRC + epoch-stamped delta payload); ParseTailFrames
	// decodes them.
	Frames  []byte
	Records int
	// Next is the cursor for the next poll: the epoch of the last
	// included record, or the request cursor when nothing qualified.
	Next uint64
	// DurableEpoch is the shard's durable epoch when the chunk was cut;
	// Next < DurableEpoch means more records are immediately available.
	DurableEpoch uint64
}

func (s *Store) checkShard(shard int) error {
	if s.man == nil {
		return fmt.Errorf("%w: %s", ErrNotInitialized, s.dir)
	}
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("durable: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	return nil
}

// DurableEpoch returns a shard's durable epoch: the last acknowledged
// journal record's epoch (the journal base when none followed it).
func (s *Store) DurableEpoch(shard int) (uint64, error) {
	if err := s.checkShard(shard); err != nil {
		return 0, err
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastEpoch, nil
}

// WaitForEpoch blocks until the shard's durable epoch exceeds after, the
// wait elapses, the ctx is done, or the store closes — the long-poll
// primitive behind tail streaming. It returns the durable epoch observed
// last; the error is non-nil only for ctx cancellation.
func (s *Store) WaitForEpoch(ctx context.Context, shard int, after uint64, wait time.Duration) (uint64, error) {
	if err := s.checkShard(shard); err != nil {
		return 0, err
	}
	ss := s.shards[shard]
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		ss.mu.Lock()
		cur := ss.lastEpoch
		if cur > after {
			ss.mu.Unlock()
			return cur, nil
		}
		if ss.tailWatch == nil {
			ss.tailWatch = make(chan struct{})
		}
		ch := ss.tailWatch
		ss.mu.Unlock()
		select {
		case <-ctx.Done():
			return cur, ctx.Err()
		case <-s.stop:
			return cur, nil
		case <-timer.C:
			return cur, nil
		case <-ch:
		}
	}
}

// SnapshotGens enumerates a shard's snapshot generations, oldest first.
func (s *Store) SnapshotGens(shard int) ([]SegmentInfo, error) {
	if err := s.checkShard(shard); err != nil {
		return nil, err
	}
	return s.segmentList(s.shards[shard].dir, snapPrefix, snapSuffix)
}

func (s *Store) segmentList(dir, prefix, suffix string) ([]SegmentInfo, error) {
	gens, err := listGens(s.fs, dir, prefix, suffix)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(gens))
	for _, g := range gens {
		seg := SegmentInfo{Epoch: g.epoch}
		if fi, serr := s.fs.Stat(g.path); serr == nil {
			seg.Size = fi.Size()
		}
		out = append(out, seg)
	}
	return out, nil
}

// ShardDurability reports one shard's durable epoch and segment inventory.
// Enumeration failures land in the Error field rather than failing the
// call — this feeds stats endpoints, which must not go dark with the disk.
func (s *Store) ShardDurability(shard int) ShardDurability {
	sd := ShardDurability{Shard: shard}
	if err := s.checkShard(shard); err != nil {
		sd.Error = err.Error()
		return sd
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	sd.DurableEpoch = ss.lastEpoch
	var openPath string
	var openSeg SegmentInfo
	if ss.j != nil {
		openPath = ss.j.path
		openSeg = SegmentInfo{
			Epoch:    ss.j.baseEpoch,
			Size:     ss.j.size,
			Open:     true,
			Poisoned: ss.j.poisoned,
		}
	}
	ss.mu.Unlock()
	if snaps, err := s.segmentList(ss.dir, snapPrefix, snapSuffix); err != nil {
		sd.Error = err.Error()
	} else {
		sd.Snapshots = snaps
	}
	wals, err := s.segmentList(ss.dir, walPrefix, walSuffix)
	if err != nil {
		sd.Error = err.Error()
		return sd
	}
	for i := range wals {
		if filepath.Join(ss.dir, walName(wals[i].Epoch)) == openPath {
			wals[i] = openSeg
		}
	}
	sd.Journals = wals
	return sd
}

// OpenSnapshot opens one snapshot generation read-only through the
// filesystem seam, returning the file and its size. The caller owns the
// close. The file is a ReadSeeker, so HTTP range requests can resume an
// interrupted bootstrap fetch mid-file.
func (s *Store) OpenSnapshot(shard int, epoch uint64) (faultfs.File, int64, error) {
	if err := s.checkShard(shard); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(s.shards[shard].dir, snapName(epoch))
	fi, err := s.fs.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// TailFrom cuts one tail chunk: every acknowledged journal record with
// epoch strictly greater than from, oldest first, in the record codec, up
// to roughly maxBytes (at least one record always fits). A cursor older
// than the retained chain returns ErrTailTruncated.
//
// A cursor inside the open journal — the steady state of a caught-up
// replica — is served by record offset: the journal's (epoch, offset)
// index locates the suffix, and only those bytes are read, CRC-checked
// and shipped verbatim (journal records and tail frames share one codec).
// Older cursors read the retained journal chain and re-frame each
// decoded record (tailChain).
//
// Either way the open journal is read capped at its acknowledged extent
// as sampled under the shard lock, so a poisoned journal's garbage suffix
// and any record whose fsync never completed are invisible to replicas —
// a replica can never get ahead of what the leader acknowledged durable.
func (s *Store) TailFrom(ctx context.Context, shard int, from uint64, maxBytes int) (*TailChunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.checkShard(shard); err != nil {
		return nil, err
	}
	if maxBytes <= 0 {
		maxBytes = defaultTailBytes
	}
	ss := s.shards[shard]
	ss.mu.Lock()
	j := ss.j
	if j == nil || from < j.baseEpoch {
		ss.mu.Unlock()
		return s.tailChain(shard, from, maxBytes)
	}
	// Sample the cut under the lock: the records past the cursor that fit
	// the budget, and the byte range they span. Records appended after
	// the sample ride the next poll.
	chunk := &TailChunk{Next: from, DurableEpoch: ss.lastEpoch}
	first := sort.Search(len(j.index), func(i int) bool { return j.index[i].epoch > from })
	last := first
	for last < len(j.index) && (last == first || j.index[last].off-j.index[first].off < int64(maxBytes)) {
		last++
	}
	recs := j.index[first:last:last] // entries are immutable once appended
	var end int64
	if last < len(j.index) {
		end = j.index[last].off
	} else {
		end = j.size
	}
	path := j.path
	ss.mu.Unlock()
	if len(recs) == 0 {
		return chunk, nil
	}
	frames, err := s.readFrames(path, recs, end)
	if err != nil {
		return nil, err
	}
	chunk.Frames = frames
	chunk.Records = len(recs)
	chunk.Next = recs[len(recs)-1].epoch
	return chunk, nil
}

// readFrames reads the journal bytes from recs[0].off to end through the
// filesystem seam and verifies that they hold exactly the indexed
// records: each frame's length, CRC and epoch. Deltas are not decoded —
// the bytes ship as they are.
func (s *Store) readFrames(path string, recs []recordPos, end int64) ([]byte, error) {
	start := recs[0].off
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	b := make([]byte, end-start)
	_, err = f.Seek(start, io.SeekStart)
	if err == nil {
		_, err = io.ReadFull(f, b)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	for i, rec := range recs {
		off := rec.off - start
		next := int64(len(b))
		if i+1 < len(recs) {
			next = recs[i+1].off - start
		}
		if next-off < recHeaderSize+8 || int64(binary.LittleEndian.Uint32(b[off:]))+recHeaderSize != next-off {
			return nil, fmt.Errorf("%w: %s: record at %d does not match its index entry", ErrCorruptJournal, name, rec.off)
		}
		payload := b[off+recHeaderSize : next]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[off+4:]) {
			return nil, fmt.Errorf("%w: %s: checksum mismatch at %d", ErrCorruptJournal, name, rec.off)
		}
		if binary.LittleEndian.Uint64(payload) != rec.epoch {
			return nil, fmt.Errorf("%w: %s: record at %d carries the wrong epoch", ErrCorruptJournal, name, rec.off)
		}
	}
	return b, nil
}

// tailChain cuts a tail chunk by reading the retained journal chain: the
// path for cursors older than the open journal's base. Each qualifying
// record is decoded and re-framed with the record codec, which encodes
// deterministically, so the frames are byte-identical to the journaled
// ones.
func (s *Store) tailChain(shard int, from uint64, maxBytes int) (*TailChunk, error) {
	ss := s.shards[shard]

	// Sample a consistent view under the shard lock: the segment listing,
	// the open journal's identity, and its acknowledged extent.
	ss.mu.Lock()
	durable := ss.lastEpoch
	var openPath string
	var openSize int64
	if ss.j != nil {
		openPath = ss.j.path
		openSize = ss.j.size
	}
	wals, err := listGens(s.fs, ss.dir, walPrefix, walSuffix)
	ss.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if len(wals) == 0 {
		return nil, fmt.Errorf("durable: shard %d has no journals", shard)
	}
	if from < wals[0].epoch {
		return nil, fmt.Errorf("%w (cursor %d, oldest retained base %d)", ErrTailTruncated, from, wals[0].epoch)
	}

	chunk := &TailChunk{Next: from, DurableEpoch: durable}
	for k, w := range wals {
		// A journal with base b holds records in (b, nextBase]; skip any
		// the cursor already covers.
		if k+1 < len(wals) && wals[k+1].epoch <= from {
			continue
		}
		b, rerr := s.fs.ReadFile(w.path)
		if rerr != nil {
			return nil, rerr
		}
		if w.path == openPath && int64(len(b)) > openSize {
			b = b[:openSize]
		}
		scan, perr := parseJournal(b, filepath.Base(w.path), false)
		if perr != nil {
			return nil, perr
		}
		for _, rec := range scan.records {
			if rec.epoch <= chunk.Next {
				continue
			}
			if chunk.Records > 0 && len(chunk.Frames) >= maxBytes {
				return chunk, nil
			}
			chunk.Frames = AppendTailFrame(chunk.Frames, rec.epoch, rec.delta)
			chunk.Records++
			chunk.Next = rec.epoch
		}
	}
	return chunk, nil
}

// AppendTailFrame appends one record in the journal record codec: length,
// payload CRC, then epoch-stamped encoded delta — byte-compatible with
// what journal appends write after the file header.
func AppendTailFrame(buf []byte, epoch uint64, del crawl.Delta) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, epoch)
	payload = appendDelta(payload, del)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// ParseTailFrames decodes a chunk of tail frames. Strict: a short, torn,
// or checksum-failing frame is an error — the transport delivers whole
// chunks or nothing, so every defect is corruption, not a crash artifact.
func ParseTailFrames(b []byte) ([]TailRecord, error) {
	var out []TailRecord
	off := int64(0)
	total := int64(len(b))
	for off < total {
		if total-off < recHeaderSize {
			return nil, fmt.Errorf("%w: tail frame: partial header at %d", ErrCorruptJournal, off)
		}
		length := int64(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if length > maxRecordSize {
			return nil, fmt.Errorf("%w: tail frame: implausible length %d at %d", ErrCorruptJournal, length, off)
		}
		if total-off-recHeaderSize < length {
			return nil, fmt.Errorf("%w: tail frame: partial payload at %d", ErrCorruptJournal, off)
		}
		payload := b[off+recHeaderSize : off+recHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: tail frame: checksum mismatch at %d", ErrCorruptJournal, off)
		}
		if length < 8 {
			return nil, fmt.Errorf("%w: tail frame: too short for an epoch at %d", ErrCorruptJournal, off)
		}
		epoch := binary.LittleEndian.Uint64(payload[:8])
		del, derr := decodeDelta(payload[8:])
		if derr != nil {
			return nil, fmt.Errorf("%w: tail frame at %d: %v", ErrCorruptJournal, off, derr)
		}
		if n := len(out); n > 0 && epoch <= out[n-1].Epoch {
			return nil, fmt.Errorf("%w: tail frame: non-monotonic epoch %d at %d", ErrCorruptJournal, epoch, off)
		}
		out = append(out, TailRecord{Epoch: epoch, Delta: del})
		off += recHeaderSize + length
	}
	return out, nil
}
