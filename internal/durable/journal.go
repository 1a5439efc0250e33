package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/crawl"
	"repro/internal/faultfs"
)

// Journal file format:
//
//	magic     [8]byte  "DASHWAL1"
//	version   uint32   little-endian
//	baseEpoch uint64   epoch of the snapshot this journal extends
//	headerCRC uint32   CRC-32 (IEEE) of the 20 bytes above
//	records...
//
// Each record:
//
//	length  uint32  payload bytes
//	crc     uint32  CRC-32 (IEEE) of the payload
//	payload         epoch uint64 (little-endian) + encoded delta
//
// A record is appended with one Write and (policy permitting) fsynced
// before the publish swap that makes its delta visible. Crashes therefore
// leave at most a torn suffix: a partial record at end-of-file, which
// replay truncates. A CRC failure on a complete record that is *not* the
// final one cannot come from a torn write — that is corruption, and replay
// refuses it.

const (
	walMagic      = "DASHWAL1"
	walVersion    = 1
	walHeaderSize = 8 + 4 + 8 + 4
	recHeaderSize = 4 + 4
	maxRecordSize = 1 << 28
)

// journal is one shard's open write-ahead log. Not self-locking: the
// owning shardStore serializes access.
type journal struct {
	f         faultfs.File
	path      string
	baseEpoch uint64
	size      int64 // bytes of acknowledged records (header + records)
	// index holds one (epoch, offset) entry per acknowledged record, in
	// file order, so the tail server seeks straight to a cursor's suffix
	// instead of re-reading and re-decoding the whole journal.
	index []recordPos
	dirty bool // unsynced appends (interval policy)
	// poisoned marks a journal whose failed append could not be truncated
	// back to the acknowledged extent: bytes of unknown validity sit past
	// size, so further appends would interleave with garbage. A poisoned
	// journal only leaves service through degraded-mode recovery, which
	// seals (re-truncates) it and rotates to a fresh journal.
	poisoned bool
}

// recordPos locates one acknowledged record: its epoch and the file offset
// of its frame (length header first).
type recordPos struct {
	epoch uint64
	off   int64
}

// createJournal writes a fresh journal file (truncating any uncommitted
// predecessor at the same path) with a fsynced header, open for appends.
// The caller fsyncs the directory.
func createJournal(fsys faultfs.FS, path string, baseEpoch uint64) (*journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, walVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, baseEpoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := f.Write(hdr); err != nil {
		//lint:ignore droppederr already failing: the header-write error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		//lint:ignore droppederr already failing: the sync error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	return &journal{f: f, path: path, baseEpoch: baseEpoch, size: walHeaderSize}, nil
}

// openJournal opens an existing, already-verified journal for appends at
// the scan's valid extent (anything past it has been truncated away),
// rebuilding the record index from the recovery scan.
func openJournal(fsys faultfs.FS, path string, scan *walScan) (*journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(scan.validSize, io.SeekStart); err != nil {
		//lint:ignore droppederr already failing: the seek error is returned; close is best-effort fd cleanup
		f.Close()
		return nil, err
	}
	index := make([]recordPos, len(scan.records))
	for i, rec := range scan.records {
		index[i] = recordPos{epoch: rec.epoch, off: rec.off}
	}
	return &journal{f: f, path: path, baseEpoch: scan.baseEpoch, size: scan.validSize, index: index}, nil
}

// errPoisoned marks append failures on a journal whose tail could not be
// repaired; retrying is pointless until recovery rotates the journal.
var errPoisoned = fmt.Errorf("journal poisoned: unrepaired bytes past the acknowledged extent")

// append writes one record; with syncNow it is fsynced before returning —
// the write-ahead guarantee for the `always` policy. Under `interval` the
// record is only marked dirty and a background sweep fsyncs it.
//
// On failure the record is not acknowledged, so append repairs the file
// back to the acknowledged extent (truncate + re-seek) before returning;
// a clean repair leaves the journal ready for a retry. If the repair
// itself fails the journal is poisoned: the failed record's bytes linger
// past size, and only degraded-mode recovery (seal + rotate behind a
// fresh checkpoint) returns the shard to service.
func (j *journal) append(del crawl.Delta, epoch uint64, syncNow bool) error {
	if j.poisoned {
		return fmt.Errorf("durable: %s: %w", filepath.Base(j.path), errPoisoned)
	}
	payload := binary.LittleEndian.AppendUint64(nil, epoch)
	payload = appendDelta(payload, del)
	rec := make([]byte, 0, recHeaderSize+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := j.f.Write(rec); err != nil {
		j.repair()
		return err
	}
	crashPoint("journal.append.before-sync")
	if syncNow {
		if err := j.f.Sync(); err != nil {
			// The record reached the file but its durability is unknown;
			// it was never acknowledged, so cut it back out — a retry
			// rewrites it whole (leaving it would double-append the epoch).
			j.repair()
			return err
		}
		crashPoint("journal.append.after-sync")
	} else {
		j.dirty = true
	}
	j.index = append(j.index, recordPos{epoch: epoch, off: j.size})
	j.size += int64(len(rec))
	return nil
}

// repair restores the file to the acknowledged extent after a failed
// append: truncate away whatever the failed write left behind and re-seek
// so the next append lands at size. Either step failing poisons the
// journal.
func (j *journal) repair() {
	if err := j.f.Truncate(j.size); err != nil {
		j.poisoned = true
		return
	}
	if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
		j.poisoned = true
	}
}

// seal makes a poisoned journal's on-disk bytes end exactly at the
// acknowledged extent, trying the (possibly damaged) fd first and the
// path as fallback. Called by degraded-mode recovery with the disk
// reprobed healthy, right before the journal is rotated out.
func (j *journal) seal(fsys faultfs.FS) error {
	if !j.poisoned {
		return nil
	}
	if err := j.f.Truncate(j.size); err != nil {
		if perr := fsys.Truncate(j.path, j.size); perr != nil {
			return fmt.Errorf("durable: sealing %s: %w", filepath.Base(j.path), perr)
		}
	}
	j.poisoned = false
	return nil
}

// sync flushes any unsynced appends (the interval policy's sweep).
func (j *journal) sync() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	return nil
}

func (j *journal) close() error {
	if err := j.sync(); err != nil {
		//lint:ignore droppederr already failing: the final-sync error (unsynced appends!) is returned; close is best-effort fd cleanup
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// walRecord is one decoded journal record and the file offset of its
// frame.
type walRecord struct {
	epoch uint64
	delta crawl.Delta
	off   int64
}

// walScan is the result of reading one journal file.
type walScan struct {
	baseEpoch uint64
	records   []walRecord
	validSize int64 // bytes up to and including the last valid record
	torn      bool  // file extends past validSize with a torn suffix
}

// readJournal reads and verifies one journal file.
//
// A torn suffix — a partial header, a partial record, or a CRC failure on
// the *final* record — is reported via torn/validSize when allowTorn is
// set (the newest journal, whose tail a crash can legitimately tear). A
// complete record failing its CRC with more data after it is never a torn
// write, and a torn condition in an older journal means acknowledged
// records vanished from the middle of the chain: both return
// ErrCorruptJournal.
func readJournal(fsys faultfs.FS, path string, allowTorn bool) (*walScan, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseJournal(b, filepath.Base(path), allowTorn)
}

// parseJournal verifies and decodes journal bytes already in memory. The
// tail server uses it directly on a size-capped read of the open journal
// (capped at the acknowledged extent, so unacknowledged bytes past a
// failed append are never parsed, let alone replicated).
func parseJournal(b []byte, name string, allowTorn bool) (*walScan, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrCorruptJournal, name, fmt.Sprintf(format, args...))
	}
	headerOK := len(b) >= walHeaderSize &&
		string(b[:8]) == walMagic &&
		crc32.ChecksumIEEE(b[:walHeaderSize-4]) == binary.LittleEndian.Uint32(b[walHeaderSize-4:walHeaderSize])
	if !headerOK {
		// A header can only be torn by a crash during journal creation, in
		// which case nothing follows it.
		if allowTorn && len(b) <= walHeaderSize {
			return &walScan{validSize: 0, torn: true}, nil
		}
		return nil, corrupt("bad header")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != walVersion {
		return nil, fmt.Errorf("%w %d: journal %s", ErrUnsupportedVersion, v, name)
	}
	scan := &walScan{
		baseEpoch: binary.LittleEndian.Uint64(b[12:20]),
		validSize: walHeaderSize,
	}
	off := int64(walHeaderSize)
	total := int64(len(b))
	torn := func(format string, args ...any) (*walScan, error) {
		if !allowTorn {
			return nil, corrupt("torn record mid-chain: "+format, args...)
		}
		scan.torn = true
		return scan, nil
	}
	for off < total {
		if total-off < recHeaderSize {
			return torn("partial record header at %d", off)
		}
		length := int64(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if length > maxRecordSize {
			return nil, corrupt("implausible record length %d at %d", length, off)
		}
		if total-off-recHeaderSize < length {
			return torn("partial record payload at %d", off)
		}
		payload := b[off+recHeaderSize : off+recHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != crc {
			if off+recHeaderSize+length == total {
				return torn("checksum mismatch in final record at %d", off)
			}
			return nil, corrupt("checksum mismatch at %d with valid data after it", off)
		}
		if length < 8 {
			return nil, corrupt("record at %d too short for an epoch", off)
		}
		epoch := binary.LittleEndian.Uint64(payload[:8])
		del, derr := decodeDelta(payload[8:])
		if derr != nil {
			return nil, corrupt("record at %d: %v", off, derr)
		}
		if n := len(scan.records); (n == 0 && epoch <= scan.baseEpoch) ||
			(n > 0 && epoch <= scan.records[n-1].epoch) {
			return nil, corrupt("non-monotonic epoch %d at %d", epoch, off)
		}
		scan.records = append(scan.records, walRecord{epoch: epoch, delta: del, off: off})
		off += recHeaderSize + length
		scan.validSize = off
	}
	return scan, nil
}
