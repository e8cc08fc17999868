package nfstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// fuzzBlockSeeds are the in-code seed inputs for FuzzDecodeBlock; the
// same bytes are committed under testdata/fuzz/ (see
// TestWriteFuzzCorpus) so `go test -fuzz` starts from structure-aware
// corpora even when run from a clean checkout.
func fuzzBlockSeeds() [][]byte {
	recs := goldenRecords()
	seeds := [][]byte{
		appendBlock(nil, recs[:1]),
		appendBlock(nil, recs[:300]),
		appendBlock(nil, recs),
		{},
		bytes.Repeat([]byte{0}, blockHeaderSize),
	}
	// A few structured mutants: flipped magic, inflated count, clipped tail.
	m := append([]byte(nil), seeds[1]...)
	m[0] ^= 0xff
	seeds = append(seeds, m)
	m = append([]byte(nil), seeds[1]...)
	m[4] = 0xff
	seeds = append(seeds, m, seeds[1][:len(seeds[1])/2])
	return seeds
}

// FuzzDecodeBlock drives the block decoder stack — header, zone-map
// meta, column sections, row materialization — over arbitrary bytes.
// Any input may error; none may panic or hang.
func FuzzDecodeBlock(f *testing.F) {
	for _, s := range fuzzBlockSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := blockReader{br: bufio.NewReader(bytes.NewReader(data))}
		count, payload, err := rd.next()
		if err != nil {
			return
		}
		var meta zoneMap
		if err := decodeBlockMeta(payload, count, &meta); err != nil {
			t.Fatalf("readBlock accepted a payload decodeBlockMeta rejects: %v", err)
		}
		var batch colBatch
		if err := decodeBlockColumns(payload[blockMetaSize:], count, nffilter.AllColumns, &batch); err != nil {
			return
		}
		var r flow.Record
		for i := 0; i < count; i++ {
			batch.fill(&r, i, nffilter.AllColumns)
		}
	})
}

// fuzzSegmentSeeds: whole segment files, both formats, valid and broken.
func fuzzSegmentSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, format := range []uint16{FormatV1, FormatV2} {
		var hdr [segHeaderSize]byte
		encodeSegHeader(hdr[:], format, 0, 300)
		seeds = append(seeds, hdr[:]) // header-only (empty segment)
		path, _ := writeGoldenSegment(tb, format)
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, raw, raw[:len(raw)-9])
	}
	var future [segHeaderSize]byte
	encodeSegHeader(future[:], segVersionMax+3, 0, 300)
	seeds = append(seeds, future[:], []byte("not a segment at all"))
	return seeds
}

// FuzzDecodeSegment plants arbitrary bytes as a bin-0 segment file and
// runs the full query path over them: header validation, per-format
// scan, lazy sidecar rebuild. Errors are expected; panics are bugs.
func FuzzDecodeSegment(f *testing.F) {
	for _, s := range fuzzSegmentSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := CreateFormat(dir, 300, FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := os.WriteFile(s.segPath(0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		iv := flow.Interval{Start: 0, End: 300}
		filter, err := nffilter.Parse("proto udp and dst port 53")
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		s.Query(ctx, iv, nil, func(*flow.Record) error { return nil })
		s.Query(ctx, iv, filter, func(*flow.Record) error { return nil })
		s.Count(ctx, iv, filter)
	})
}

// fuzzZoneMapSeeds are sidecar files for bin 1200 (width 300): v1 and
// v2 summaries of the golden records, a one-record summary (every field
// nonzero), plus a foreign bin, a clipped tail, a flipped payload byte
// and an empty file.
func fuzzZoneMapSeeds() [][]byte {
	v1, v2, one := newZoneMap(), newZoneMap(), newZoneMap()
	for _, r := range goldenRecords() {
		v1.add(&r)
		v2.add(&r)
	}
	one.add(&flow.Record{
		Start: 1234, Dur: 9, SrcIP: flow.IPFromOctets(10, 1, 2, 3), DstIP: flow.IPFromOctets(192, 0, 2, 7),
		SrcPort: 4321, DstPort: 80, Proto: flow.ProtoTCP, Flags: 0x12, Router: 3, Packets: 5, Bytes: 400,
	})
	v1.format, one.format = FormatV1, FormatV1
	v2.format, v2.coveredSize = FormatV2, 4096
	a, b := encodeZoneMap(v1, 1200, 300), encodeZoneMap(v2, 1200, 300)
	flipped := append([]byte(nil), a...)
	flipped[50] ^= 0xff
	return [][]byte{a, b, encodeZoneMap(one, 1200, 300), encodeZoneMap(v1, 1500, 300), a[:idxSize-1], flipped, {}}
}

// FuzzDecodeZoneMap drives the sidecar decoder over arbitrary bytes, as
// given and — for inputs of sidecar size — with the checksum restamped,
// so mutations reach the field checks behind it. No input may panic, and
// any sidecar the decoder accepts must re-encode to bytes that decode to
// the same zone map.
func FuzzDecodeZoneMap(f *testing.F) {
	for _, s := range fuzzZoneMapSeeds() {
		f.Add(s)
	}
	check := func(t *testing.T, data []byte) {
		z, err := decodeZoneMap(data, 1200, 300)
		if err != nil {
			return
		}
		again, err := decodeZoneMap(encodeZoneMap(z, 1200, 300), 1200, 300)
		if err != nil {
			t.Fatalf("re-encoded sidecar rejected: %v", err)
		}
		if *again != *z {
			t.Fatalf("re-encoded sidecar decodes differently:\n got %+v\nwant %+v", again, z)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) == idxSize {
			fixed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(fixed[idxSize-4:], idxChecksum(fixed[:idxSize-4]))
			check(t, fixed)
		}
	})
}

// TestWriteFuzzCorpus materializes the in-code seeds as corpus files in
// `go test fuzz v1` encoding under testdata/fuzz/<Target>/, where the
// fuzzing engine picks them up. Gated: run with UPDATE_GOLDEN=1 after
// changing the seed sets; the files are committed.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") == "" {
		t.Skip("corpus committed; set UPDATE_GOLDEN=1 to regenerate")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus files to %s", len(seeds), dir)
	}
	write("FuzzDecodeBlock", fuzzBlockSeeds())
	write("FuzzDecodeSegment", fuzzSegmentSeeds(t))
}
