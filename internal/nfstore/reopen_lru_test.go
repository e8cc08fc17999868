package nfstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/flow"
)

// stripSidecars deletes every sidecar file and clears the cache,
// simulating a pre-index archive.
func stripSidecars(t *testing.T, s *Store) {
	t.Helper()
	for _, p := range sidecarPaths(t, s.dir) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	s.zmc = zmCache{}
}

// TestReopenUnindexedAppend: appending to a reopened segment that has no
// current sidecar keeps no live zone map. Queries stay exact before and
// after the flush, no sidecar is written while the writer is open, and
// the first query after Close rebuilds exactly one sidecar — equal to a
// zone map built over the segment's records — which the next unfiltered
// Count answers from.
func TestReopenUnindexedAppend(t *testing.T) {
	for _, format := range []uint16{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			dir := t.TempDir()
			s, err := CreateFormat(dir, 300, format)
			if err != nil {
				t.Fatal(err)
			}
			const preExisting, extra = 3000, 25
			var recs []flow.Record
			for i := 0; i < preExisting; i++ {
				r := randRecord(rng, 300)
				recs = append(recs, r)
				if err := s.Add(&r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen as a pre-index archive and append to its one bin.
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s2.Close() })
			stripSidecars(t, s2)
			for i := 0; i < extra; i++ {
				r := randRecord(rng, 300)
				recs = append(recs, r)
				if err := s2.Add(&r); err != nil {
					t.Fatal(err)
				}
			}

			iv := flow.Interval{Start: 0, End: 300}
			ctx := context.Background()
			noSidecar := func(when string) {
				t.Helper()
				if _, err := os.Stat(s2.idxPath(0)); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("%s: sidecar for an open unindexed bin exists (stat err %v)", when, err)
				}
				if n := s2.Stats().SidecarsBuilt; n != 0 {
					t.Fatalf("%s: SidecarsBuilt = %d, want 0", when, n)
				}
			}
			exact := func(when string, want []flow.Record) {
				t.Helper()
				flows, _, _, err := s2.Count(ctx, iv, nil)
				if err != nil {
					t.Fatal(err)
				}
				if flows != uint64(len(want)) {
					t.Fatalf("%s: Count = %d, want %d", when, flows, len(want))
				}
				got, err := s2.Records(ctx, iv, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Records returned %d records, not the %d written", when, len(got), len(want))
				}
			}

			// Before the flush readers see exactly the closed prefix.
			exact("pre-flush", recs[:preExisting])
			noSidecar("pre-flush")
			if err := s2.Flush(); err != nil {
				t.Fatal(err)
			}
			exact("post-flush", recs)
			noSidecar("post-flush")

			// After Close the first query rebuilds the one sidecar.
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			noSidecar("close")
			exact("post-close", recs)
			if n := s2.Stats().SidecarsBuilt; n != 1 {
				t.Fatalf("first query after close built %d sidecars, want 1", n)
			}
			raw, err := os.ReadFile(s2.idxPath(0))
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeZoneMap(raw, 0, 300)
			if err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(s2.segPath(0))
			if err != nil {
				t.Fatal(err)
			}
			want := newZoneMap()
			for i := range recs {
				want.add(&recs[i])
			}
			want.coveredSize = st.Size()
			want.format = format
			if *got != *want {
				t.Fatalf("rebuilt sidecar diverges from add() over the segment:\n got %+v\nwant %+v", got, want)
			}

			// The rebuilt sidecar answers an unfiltered Count by pushdown.
			s2.ResetStats()
			flows, _, _, err := s2.Count(ctx, iv, nil)
			if err != nil {
				t.Fatal(err)
			}
			if flows != uint64(len(recs)) {
				t.Fatalf("pushdown Count = %d, want %d", flows, len(recs))
			}
			if st := s2.Stats(); st.SegmentsAggregated != 1 || st.SegmentsScanned != 0 {
				t.Fatalf("Count not answered from the sidecar: %+v", st)
			}
		})
	}
}

// TestReopenUnindexedQueriesStayCorrect: queries against a reopened
// unindexed segment with pending appends see every record flushed before
// the reopen, plus the new appends after their flush.
func TestReopenUnindexedQueriesStayCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dir := t.TempDir()
	s, err := Create(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	const preExisting = 2000
	for i := 0; i < preExisting; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	stripSidecars(t, s2)

	r := randRecord(rng, 300)
	if err := s2.Add(&r); err != nil {
		t.Fatal(err)
	}
	// Query before the flush: the flushed prefix is all a reader may
	// rely on.
	iv := flow.Interval{Start: 0, End: 300}
	flows, _, _, err := s2.Count(context.Background(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != preExisting {
		t.Fatalf("pre-flush count = %d, want %d", flows, preExisting)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	flows, _, _, err = s2.Count(context.Background(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != preExisting+1 {
		t.Fatalf("post-flush count = %d, want %d", flows, preExisting+1)
	}
}

// TestReopenUnindexedCloseStaysQueryable: Close right after an append to
// a reopened unindexed segment closes cleanly; the segment stays
// queryable and its sidecar is rebuilt by the next scan.
func TestReopenUnindexedCloseStaysQueryable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	s, err := Create(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stripSidecars(t, s2)
	r := randRecord(rng, 300)
	if err := s2.Add(&r); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	flows, _, _, err := s2.Count(context.Background(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != 5001 {
		t.Fatalf("count after close = %d, want 5001", flows)
	}
	if n := s2.Stats().SidecarsBuilt; n != 1 {
		t.Fatalf("scan after close built %d sidecars, want 1", n)
	}
}

// TestZoneMapCacheLRU: the cache holds at most defaultZoneMapCacheEntries,
// evicting the least recently touched bin first.
func TestZoneMapCacheLRU(t *testing.T) {
	var c zmCache
	zs := make([]*zoneMap, defaultZoneMapCacheEntries)
	for i := range zs {
		zs[i] = newZoneMap()
		c.put(uint32(i)*300, zs[i])
	}
	if c.get(0) != zs[0] { // touch bin 0: bin 300 becomes LRU
		t.Fatal("get(0) missed")
	}
	// Re-putting an existing bin updates in place without eviction.
	z1b := newZoneMap()
	c.put(600, z1b) // touch bin 600 too: LRU order is now 900, 1200, …
	if c.len() != defaultZoneMapCacheEntries || c.get(600) != z1b {
		t.Fatal("in-place update misbehaved")
	}
	// Each insert beyond the cap evicts exactly the least recently used
	// bin: 300 first, then 900 (600 was refreshed).
	c.put(defaultZoneMapCacheEntries*300, newZoneMap())
	if c.len() != defaultZoneMapCacheEntries {
		t.Fatalf("cache len = %d, want %d", c.len(), defaultZoneMapCacheEntries)
	}
	if c.get(300) != nil {
		t.Fatal("LRU bin 300 not evicted")
	}
	if c.get(900) != zs[3] {
		t.Fatal("bin 900 evicted before its turn")
	}
	// The get above refreshed 900, so the next eviction takes 1200.
	c.put((defaultZoneMapCacheEntries+1)*300, newZoneMap())
	if c.get(1200) != nil {
		t.Fatal("LRU bin 1200 not evicted")
	}
	if c.get(0) != zs[0] || c.get(600) != z1b || c.get(900) != zs[3] {
		t.Fatal("recently used entries evicted")
	}
}

// TestZoneMapCacheDefaultCap: with no explicit cap the default applies.
func TestZoneMapCacheDefaultCap(t *testing.T) {
	var c zmCache
	for bin := uint32(0); bin < defaultZoneMapCacheEntries+50; bin++ {
		c.put(bin*300, newZoneMap())
	}
	if c.len() != defaultZoneMapCacheEntries {
		t.Fatalf("cache len = %d, want default cap %d", c.len(), defaultZoneMapCacheEntries)
	}
}

// TestStoreZoneMapCacheBound: a sweep over a store whose cache is already
// full keeps the cache at its bound, and queries stay correct after the
// store's own entries are evicted.
func TestStoreZoneMapCacheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := randFilterStore(t, rng, 2000, 24) // 24 bins
	span := flow.Interval{Start: 0, End: 24 * 300}
	wantFlows, _, _, err := s.Count(context.Background(), span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantFlows != 2000 {
		t.Fatalf("count = %d, want 2000", wantFlows)
	}
	// Fill the cache with bins the store does not have, then sweep bin by
	// bin (each loadZoneMap touches the cache) and verify the bound holds.
	fill := func() {
		for i := uint32(0); i < defaultZoneMapCacheEntries; i++ {
			s.zmc.put((1000+i)*300, newZoneMap())
		}
	}
	fill()
	if _, err := s.Summaries(context.Background(), span, nil); err != nil {
		t.Fatal(err)
	}
	if n := s.zmc.len(); n != defaultZoneMapCacheEntries {
		t.Fatalf("cache holds %d entries, cap %d", n, defaultZoneMapCacheEntries)
	}
	// Evict every store bin: results must not change.
	fill()
	if s.zmc.get(0) != nil {
		t.Fatal("store bin survived a full refill")
	}
	again, _, _, err := s.Count(context.Background(), span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != wantFlows {
		t.Fatalf("post-eviction count = %d, want %d", again, wantFlows)
	}
}

// TestSummariesListsBinsOnce: one Summaries call over a many-bin store
// matches per-bin Counts, and per-bin planning goes through the shared
// bin listing (the segments-considered counter grows by exactly the
// overlapping bin count, as with Count, while ReadDir now happens once —
// pinned by the benchmark, asserted here via correctness).
func TestSummariesListsBinsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := randFilterStore(t, rng, 3000, 16)
	span := flow.Interval{Start: 0, End: 16 * 300}
	sums, err := s.Summaries(context.Background(), span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 16 {
		t.Fatalf("%d summaries, want 16", len(sums))
	}
	var total uint64
	for _, bs := range sums {
		flows, packets, bytes, err := s.Count(context.Background(), bs.Bin, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bs.Flows != flows || bs.Packets != packets || bs.Bytes != bytes {
			t.Fatalf("bin %v summary %+v != count (%d,%d,%d)", bs.Bin, bs, flows, packets, bytes)
		}
		total += bs.Flows
	}
	if total != 3000 {
		t.Fatalf("summaries total %d flows, want 3000", total)
	}
}

// BenchmarkSummariesWarmup measures the warm-up sweep the satellite
// optimizes: Summaries over every bin of a store whose sidecars are all
// cached (the directory listing is the remaining per-bin cost).
func BenchmarkSummariesWarmup(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	s, err := Create(b.TempDir(), 300)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const bins = 96
	for i := 0; i < 4800; i++ {
		r := randRecord(rng, bins*300)
		if err := s.Add(&r); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	span := flow.Interval{Start: 0, End: bins * 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := s.Summaries(context.Background(), span, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(sums) != bins {
			b.Fatalf("%d summaries", len(sums))
		}
	}
}
