package durable

// Native fuzz targets for the byte decoders that face the network and the
// disk: tail frames read off the wire, journal files read back at
// recovery, and snapshot files (index files, checkpoints, replica
// bootstraps) together with the index Restore that follows them. Each
// target asserts that a decoder never panics and either returns a typed
// error or a value that survives an encode/decode round trip unchanged.
// Run one with, for example,
//
//	go test -run '^$' -fuzz '^FuzzParseTailFrames$' -fuzztime 30s ./internal/durable/
//
// Inputs that once failed are kept under testdata/fuzz/<target>/ and run
// as regular tests.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fooddb"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

// fuzzSeedFrames are the frames the tail tests exercise: an insert with
// keywords, a removal, and a multi-change delta with selection attributes.
func fuzzSeedFrames() []byte {
	var buf []byte
	buf = AppendTailFrame(buf, 10, insDelta(fid("a", 1), map[string]int64{"x": 2}, 2))
	buf = AppendTailFrame(buf, 12, rmDelta(fid("a", 1)))
	multi := crawl.Delta{SelAttrs: []string{"g", "v"}, Changes: []crawl.FragmentChange{
		{Op: crawl.OpUpdateFragment, ID: fragment.ID{relation.String("p0"), relation.Int(3)},
			TermCounts: map[string]int64{"common": 3, "w3": 2}, TotalTerms: 5},
		{Op: crawl.OpInsertFragment, ID: fid("b", 7), TermCounts: map[string]int64{"y": 1}, TotalTerms: 1},
	}}
	return AppendTailFrame(buf, 15, multi)
}

// journalHeader is a valid journal file header at baseEpoch.
func journalHeader(baseEpoch uint64) []byte {
	hdr := append([]byte(nil), walMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, walVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, baseEpoch)
	return binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
}

// reframe re-encodes decoded records with the record codec.
func reframe(recs []TailRecord) []byte {
	var out []byte
	for _, rec := range recs {
		out = AppendTailFrame(out, rec.Epoch, rec.Delta)
	}
	return out
}

func FuzzParseTailFrames(f *testing.F) {
	frames := fuzzSeedFrames()
	f.Add(frames)
	f.Add(frames[:len(frames)/2])
	f.Add(frames[recHeaderSize:]) // a bare payload: the framed pass decodes it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkTailFrames(t, b)
		// The same bytes as one payload behind a valid length and CRC, so
		// mutations reach the delta decoder instead of dying at the
		// checksum.
		checkTailFrames(t, framePayload(nil, b))
	})
}

// framePayload appends b as one record payload behind its length and CRC.
func framePayload(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(b))
	return append(dst, b...)
}

// checkTailFrames asserts ParseTailFrames' contract on one input: a typed
// error, or records that round-trip through the codec unchanged.
func checkTailFrames(t *testing.T, b []byte) {
	t.Helper()
	recs, err := ParseTailFrames(b)
	if err != nil {
		if !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	// The decoded records re-encode to canonical frames, and those
	// decode back to records that re-encode to the same bytes.
	canon := reframe(recs)
	again, err := ParseTailFrames(canon)
	if err != nil {
		t.Fatalf("re-encoded frames do not parse: %v", err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip changed the record count: %d -> %d", len(recs), len(again))
	}
	for i := range recs {
		if again[i].Epoch != recs[i].Epoch {
			t.Fatalf("record %d epoch %d -> %d", i, recs[i].Epoch, again[i].Epoch)
		}
	}
	if !bytes.Equal(reframe(again), canon) {
		t.Fatal("re-encoding is not stable")
	}
}

func FuzzParseJournal(f *testing.F) {
	frames := fuzzSeedFrames()
	full := append(journalHeader(9), frames...)
	f.Add(full, false)
	f.Add(full[:len(full)-3], true)
	f.Add(journalHeader(9), false)
	f.Add(journalHeader(9)[:walHeaderSize-2], true)
	f.Add(frames[recHeaderSize:], false) // a bare payload: the framed pass decodes it
	f.Fuzz(func(t *testing.T, b []byte, allowTorn bool) {
		checkJournal(t, b, allowTorn)
		// The same bytes as one record payload behind a valid header,
		// length and CRC, so mutations reach the record decoder.
		checkJournal(t, framePayload(journalHeader(1), b), allowTorn)
	})
}

// checkJournal asserts parseJournal's contract on one input: a typed
// error, or a valid prefix that re-encodes to a clean journal with the
// same epochs and stable bytes.
func checkJournal(t *testing.T, b []byte, allowTorn bool) {
	t.Helper()
	scan, err := parseJournal(b, "fuzz", allowTorn)
	if err != nil {
		if !errors.Is(err, ErrCorruptJournal) && !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	if scan.validSize > int64(len(b)) || (!scan.torn && scan.validSize != int64(len(b))) {
		t.Fatalf("valid extent %d of %d bytes (torn %v)", scan.validSize, len(b), scan.torn)
	}
	if scan.validSize < walHeaderSize {
		return // a header torn at creation: nothing to round-trip
	}
	for _, rec := range scan.records {
		if rec.off < walHeaderSize || rec.off >= scan.validSize {
			t.Fatalf("record offset %d outside the valid extent %d", rec.off, scan.validSize)
		}
	}
	// The valid prefix re-encodes to a clean journal that parses, with
	// nothing torn, to the same epochs and the same bytes.
	recs := make([]TailRecord, len(scan.records))
	for i, rec := range scan.records {
		recs[i] = TailRecord{Epoch: rec.epoch, Delta: rec.delta}
	}
	canon := append(journalHeader(scan.baseEpoch), reframe(recs)...)
	again, err := parseJournal(canon, "canon", false)
	if err != nil {
		t.Fatalf("re-encoded journal does not parse: %v", err)
	}
	if again.torn || again.baseEpoch != scan.baseEpoch || len(again.records) != len(scan.records) {
		t.Fatalf("round trip changed the journal: %+v", again)
	}
	for i := range again.records {
		if again.records[i].epoch != scan.records[i].epoch {
			t.Fatalf("record %d epoch %d -> %d", i, scan.records[i].epoch, again.records[i].epoch)
		}
		recs[i] = TailRecord{Epoch: again.records[i].epoch, Delta: again.records[i].delta}
	}
	if !bytes.Equal(append(journalHeader(again.baseEpoch), reframe(recs)...), canon) {
		t.Fatal("re-encoding is not stable")
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	food := encodeSnapshot(f, fooddbDump(f))
	f.Add(food)
	f.Add(food[:len(food)/2])
	golden, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*", "shard-*", "snap-*.snap"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkSnapshot(t, b)
		// The same bytes with every checksum recomputed, so mutations
		// inside a section reach the payload decoders and Restore
		// instead of dying at a CRC.
		checkSnapshot(t, reseal(b))
	})
}

// fooddbDump is the dump of the paper's running-example index.
func fooddbDump(tb testing.TB) *fragindex.Dump {
	tb.Helper()
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := crawl.Reference(db, b)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(b)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return idx.Dump()
}

// encodeSnapshot returns the bytes writeSnapshot writes for d.
func encodeSnapshot(tb testing.TB, d *fragindex.Dump) []byte {
	tb.Helper()
	var table []sectionEntry
	var body []byte
	off := uint64(snapHeaderSize(d))
	err := encodeSections(d, func(p []byte) error {
		table = append(table, sectionEntry{off: off, len: uint64(len(p)), crc: crc32.ChecksumIEEE(p)})
		off += uint64(len(p))
		body = append(body, p...)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return append(encodeHeader(table), body...)
}

// reseal returns b with each in-bounds section's checksum and the header
// checksum recomputed over b's own bytes. Input too short for its section
// table comes back unchanged.
func reseal(b []byte) []byte {
	if len(b) < snapFixedHeader {
		return b
	}
	count := int(binary.LittleEndian.Uint32(b[12:16]))
	if count < 1 || count > maxSections {
		return b
	}
	headerSize := snapFixedHeader + count*snapTableEntry + snapHeaderTrailer
	if len(b) < headerSize {
		return b
	}
	out := append([]byte(nil), b...)
	for i := 0; i < count; i++ {
		at := snapFixedHeader + i*snapTableEntry
		off, n := binary.LittleEndian.Uint64(out[at:]), binary.LittleEndian.Uint64(out[at+8:])
		if off >= uint64(headerSize) && off <= uint64(len(out)) && n <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(out[at+16:], crc32.ChecksumIEEE(out[off:off+n]))
		}
	}
	binary.LittleEndian.PutUint32(out[headerSize-4:], crc32.ChecksumIEEE(out[:headerSize-4]))
	return out
}

// checkSnapshot asserts the snapshot decoder's contract on one input: a
// typed error, or a dump that re-encodes to an equal dump. A decoded dump
// then either fails Restore with ErrCorruptIndex or restores to an index
// whose own dump restores to the same dump.
func checkSnapshot(t *testing.T, b []byte) {
	t.Helper()
	d, err := DecodeSnapshot(b, "fuzz")
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	again, err := DecodeSnapshot(encodeSnapshot(t, d), "canon")
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	if !reflect.DeepEqual(again, d) {
		t.Fatalf("round trip changed the dump:\n%+v\n%+v", d, again)
	}
	idx, err := fragindex.Restore(d)
	if err != nil {
		if !errors.Is(err, fragindex.ErrCorruptIndex) {
			t.Fatalf("untyped restore error: %v", err)
		}
		return
	}
	canon := idx.Dump()
	re, err := fragindex.Restore(canon)
	if err != nil {
		t.Fatalf("a restored index's dump does not restore: %v", err)
	}
	if !reflect.DeepEqual(re.Dump(), canon) {
		t.Fatal("restore of a canonical dump changed it")
	}
}
