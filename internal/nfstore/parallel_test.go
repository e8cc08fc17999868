package nfstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// randRecord draws a record whose fields cluster enough for filters to
// select non-trivially: a few dozen hosts, a handful of ports and
// protocols, heavy-tailed counters.
func randRecord(rng *rand.Rand, span uint32) flow.Record {
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP, 47}
	ports := []uint16{22, 53, 80, 443, 8080, uint16(rng.Intn(65536))}
	r := flow.Record{
		Start:   uint32(rng.Intn(int(span))),
		Dur:     uint32(rng.Intn(10_000)),
		SrcIP:   flow.IPFromOctets(10, 0, byte(rng.Intn(4)), byte(rng.Intn(40))),
		DstIP:   flow.IPFromOctets(192, 0, 2, byte(rng.Intn(40))),
		SrcPort: ports[rng.Intn(len(ports))],
		DstPort: ports[rng.Intn(len(ports))],
		Proto:   protos[rng.Intn(len(protos))],
		Router:  uint16(rng.Intn(4)),
		Packets: uint64(1 + rng.Intn(1000)),
	}
	r.Bytes = r.Packets * uint64(40+rng.Intn(1400))
	if r.Proto == flow.ProtoTCP {
		r.Flags = uint8(rng.Intn(64))
	}
	return r
}

// randFilterStore fills a store with n random records over bins*300
// seconds and returns the records' span.
func randFilterStore(t *testing.T, rng *rand.Rand, n, bins int) *Store {
	t.Helper()
	s, err := Create(t.TempDir(), 300)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	span := uint32(bins * 300)
	for i := 0; i < n; i++ {
		r := randRecord(rng, span)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

// randPredicate builds one random leaf predicate.
func randPredicate(rng *rand.Rand) nffilter.Node {
	dir := nffilter.Dir(rng.Intn(3))
	op := nffilter.CmpOp(rng.Intn(6))
	switch rng.Intn(7) {
	case 0:
		return &nffilter.IPMatch{Dir: dir,
			Addr: flow.IPFromOctets(10, 0, byte(rng.Intn(4)), byte(rng.Intn(48)))}
	case 1:
		bits := 8 * (1 + rng.Intn(4))
		return &nffilter.NetMatch{Dir: dir,
			Prefix: flow.Prefix{Addr: flow.IPFromOctets(10, 0, byte(rng.Intn(4)), 0), Bits: bits}.Masked()}
	case 2:
		ports := []uint16{22, 53, 80, 443, 8080, uint16(rng.Intn(65536))}
		return &nffilter.PortMatch{Dir: dir, Op: op, Port: ports[rng.Intn(len(ports))]}
	case 3:
		protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP, 47, 50}
		return &nffilter.ProtoMatch{Proto: protos[rng.Intn(len(protos))]}
	case 4:
		fields := []nffilter.CounterField{nffilter.FieldPackets, nffilter.FieldBytes,
			nffilter.FieldDuration, nffilter.FieldRouter}
		return &nffilter.CounterMatch{Field: fields[rng.Intn(len(fields))], Op: op,
			Value: uint64(rng.Intn(2000))}
	case 5:
		return &nffilter.FlagsMatch{Mask: uint8(rng.Intn(64))}
	default:
		return nffilter.Any{}
	}
}

// randFilterNode builds a random AST of bounded depth.
func randFilterNode(rng *rand.Rand, depth int) nffilter.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randPredicate(rng)
	}
	switch rng.Intn(3) {
	case 0:
		kids := make([]nffilter.Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randFilterNode(rng, depth-1)
		}
		return &nffilter.And{Kids: kids}
	case 1:
		kids := make([]nffilter.Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randFilterNode(rng, depth-1)
		}
		return &nffilter.Or{Kids: kids}
	default:
		return &nffilter.Not{Kid: randFilterNode(rng, depth-1)}
	}
}

// collectSerialUnpruned is the reference scan: pruning off, one worker.
func collectSerialUnpruned(t *testing.T, s *Store, iv flow.Interval, f *nffilter.Filter) []flow.Record {
	t.Helper()
	s.SetPruning(false)
	s.SetParallelism(1)
	defer func() {
		s.SetPruning(true)
		s.SetParallelism(0)
	}()
	recs, err := s.Records(t.Context(), iv, f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestQueryPrunedParallelEquivalence is the engine's core property: for
// random filters and spans, the pruned parallel scan returns exactly the
// serial unpruned scan's records, in the same order, and Count agrees.
func TestQueryPrunedParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randFilterStore(t, rng, 6000, 8)

	for trial := 0; trial < 120; trial++ {
		var f *nffilter.Filter
		if rng.Intn(8) != 0 { // occasionally a nil (match-all) filter
			f = nffilter.FromNode(randFilterNode(rng, 3))
		}
		lo := uint32(rng.Intn(9 * 300))
		hi := lo + uint32(rng.Intn(5*300))
		iv := flow.Interval{Start: lo, End: hi}

		want := collectSerialUnpruned(t, s, iv, f)

		s.SetParallelism(4)
		got, err := s.Records(t.Context(), iv, f)
		s.SetParallelism(0)
		if err != nil {
			t.Fatalf("trial %d filter %v: %v", trial, f, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d filter %v iv %v: pruned+parallel returned %d records, serial %d",
				trial, f, iv, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d filter %v: record %d differs:\n got %+v\nwant %+v",
					trial, f, i, got[i], want[i])
			}
		}

		// Count must agree with the materialized records even when it
		// answers some segments from sidecars alone.
		flows, packets, bytes, err := s.Count(t.Context(), iv, f)
		if err != nil {
			t.Fatalf("trial %d: Count: %v", trial, err)
		}
		var wantPk, wantBy uint64
		for i := range want {
			wantPk += want[i].Packets
			wantBy += want[i].Bytes
		}
		if flows != uint64(len(want)) || packets != wantPk || bytes != wantBy {
			t.Fatalf("trial %d filter %v: Count = (%d,%d,%d), want (%d,%d,%d)",
				trial, f, flows, packets, bytes, len(want), wantPk, wantBy)
		}
	}
}

// refTopN is TopN computed directly over materialized records.
func refTopN(recs []flow.Record, feat flow.Feature, w Weight, k int) []KeyCount {
	acc := make(map[uint32]uint64)
	for i := range recs {
		acc[feat.Value(&recs[i])] += w.Of(&recs[i])
	}
	rows := make([]KeyCount, 0, len(acc))
	for v, c := range acc {
		rows = append(rows, KeyCount{Value: v, Count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Value < rows[j].Value
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// TestAggregationsEquivalence checks Count, TopN (top 5 and every key —
// the full table shows a bad merge of per-worker partials that the top
// rows can hide) and Summaries at several worker counts, on v1 and v2
// stores, against the serial unpruned engine across random filters and
// spans.
func TestAggregationsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v1, v2 := twinStores(t, rng, 3000, 6)
	feats := []flow.Feature{flow.FeatSrcIP, flow.FeatDstIP, flow.FeatSrcPort, flow.FeatDstPort, flow.FeatProto}
	weights := []Weight{ByFlows, ByPackets, ByBytes}

	for _, tc := range []struct {
		name string
		s    *Store
	}{{"v1", v1}, {"v2", v2}} {
		s := tc.s
		for trial := 0; trial < 40; trial++ {
			var f *nffilter.Filter
			if rng.Intn(6) != 0 {
				f = nffilter.FromNode(randFilterNode(rng, 2))
			}
			iv := flow.Interval{Start: 0, End: 6 * 300}
			if trial%2 == 1 {
				lo := uint32(rng.Intn(6 * 300))
				iv = flow.Interval{Start: lo, End: lo + uint32(rng.Intn(4*300))}
			}
			feat, w := feats[trial%len(feats)], weights[trial%len(weights)]

			want := collectSerialUnpruned(t, s, iv, f)
			var wantPk, wantBy uint64
			for i := range want {
				wantPk += want[i].Packets
				wantBy += want[i].Bytes
			}
			wantTop5, wantAll := refTopN(want, feat, w, 5), refTopN(want, feat, w, 0)
			s.SetPruning(false)
			s.SetParallelism(1)
			wantSums, err := s.Summaries(t.Context(), iv, f)
			if err != nil {
				t.Fatal(err)
			}
			s.SetPruning(true)

			for _, k := range []int{1, 2, 3, 8} {
				s.SetParallelism(k)
				where := fmt.Sprintf("%s trial %d parallelism %d filter %v iv %v", tc.name, trial, k, f, iv)
				flows, packets, bytes, err := s.Count(t.Context(), iv, f)
				if err != nil {
					t.Fatalf("%s: Count: %v", where, err)
				}
				if flows != uint64(len(want)) || packets != wantPk || bytes != wantBy {
					t.Fatalf("%s: Count = (%d,%d,%d), want (%d,%d,%d)",
						where, flows, packets, bytes, len(want), wantPk, wantBy)
				}
				for _, c := range []struct {
					k    int
					want []KeyCount
				}{{5, wantTop5}, {0, wantAll}} {
					got, err := s.TopN(t.Context(), iv, f, feat, w, c.k)
					if err != nil {
						t.Fatalf("%s: TopN k=%d: %v", where, c.k, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(c.want) {
						t.Fatalf("%s: TopN(%v, %v, k=%d)\n got %v\nwant %v", where, feat, w, c.k, got, c.want)
					}
				}
				gotSums, err := s.Summaries(t.Context(), iv, f)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(gotSums) != fmt.Sprint(wantSums) {
					t.Fatalf("%s: Summaries\n got %v\nwant %v", where, gotSums, wantSums)
				}
			}
			s.SetParallelism(0)
		}
	}
}

// TestAggregationFoldErrors pins the fold executor's failure contract on
// a store with one truncated sealed segment among eight, scanned by four
// workers: Count and TopN blame that segment's bin (never a healthy
// segment whose scan the executor cancelled), a context cancelled before
// or during the workers' scans surfaces as context.Canceled, and no
// worker outlives the call. (A context cancelled before the call is
// TestRecordsAndCountPropagateCancellation's case.)
func TestAggregationFoldErrors(t *testing.T) {
	const bins, badBin = 8, 5 * 300
	for _, format := range []uint16{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			dir := t.TempDir()
			s, err := CreateFormat(dir, 300, format)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < bins; b++ {
				for i := 0; i < 3000; i++ {
					r := flow.Record{
						Start: uint32(b*300 + i%300), SrcIP: flow.IP(i + 1), DstIP: flow.IP(i%7 + 1),
						SrcPort: 1, DstPort: 80, Proto: flow.ProtoTCP,
						Packets: uint64(1 + i%3), Bytes: 100,
					}
					if err := s.Add(&r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.segPath(badBin))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.segPath(badBin), raw[:len(raw)-7], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(s.idxPath(badBin)); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetParallelism(4)

			iv := flow.Interval{Start: 0, End: bins * 300}
			f := nffilter.MustParse("packets > 1") // no pushdown, no pruning
			goroutines := runtime.NumGoroutine()
			blamed := fmt.Sprintf("segment %d", badBin)
			for i := 0; i < 20; i++ {
				if _, _, _, err := s.Count(t.Context(), iv, f); err == nil || !strings.Contains(err.Error(), blamed) {
					t.Fatalf("Count err = %v, want one naming %s", err, blamed)
				}
				if _, err := s.TopN(t.Context(), iv, f, flow.FeatDstIP, ByPackets, 0); err == nil || !strings.Contains(err.Error(), blamed) {
					t.Fatalf("TopN err = %v, want one naming %s", err, blamed)
				}
			}

			// Cancelled once the workers are committed: after planning,
			// before any scan starts, so the truncated segment can never
			// win the race to fail first.
			plan, err := s.planSegments(iv, f)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(t.Context())
			err = s.execFold(ctx, plan, scanOpts{iv: iv, filter: f}, func() func(*flow.Record) error {
				cancel()
				return func(*flow.Record) error { return nil }
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("fold cancelled before its scans: err = %v", err)
			}
			// Cancelled mid-scan by a sink, over the healthy segments.
			healthy := slices.DeleteFunc(plan, func(p segPlan) bool { return p.bin == badBin })
			ctx, cancel = context.WithCancel(t.Context())
			err = s.execFold(ctx, healthy, scanOpts{iv: iv, filter: f}, func() func(*flow.Record) error {
				return func(*flow.Record) error { cancel(); return nil }
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("fold cancelled by a sink: err = %v", err)
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the calls, %d before: a fold worker outlived its call",
						runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestPruningObservable asserts the scan-stats counters actually show
// segments being skipped for a selective filter and pushed down for an
// unfiltered Count.
func TestPruningObservable(t *testing.T) {
	s := newTestStore(t)
	// 10 bins of port-80 traffic from 10.0.0.x; one bin also holds flows
	// from a distinctive source.
	needle := flow.MustParseIP("172.16.9.9")
	for b := 0; b < 10; b++ {
		for i := 0; i < 50; i++ {
			r := testRecord(uint32(b*300+i), byte(i), 80, 2)
			if err := s.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
	}
	hot := testRecord(5*300+7, 1, 80, 2)
	hot.SrcIP = needle
	if err := s.Add(&hot); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	iv := flow.Interval{Start: 0, End: 3000}

	s.ResetStats()
	got, err := s.Records(t.Context(), iv, nffilter.MustParse("src ip 172.16.9.9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != hot {
		t.Fatalf("selective query returned %v", got)
	}
	st := s.Stats()
	if st.SegmentsConsidered != 10 {
		t.Fatalf("considered %d segments, want 10", st.SegmentsConsidered)
	}
	if st.SegmentsPruned != 9 {
		t.Fatalf("pruned %d segments, want 9 (stats %+v)", st.SegmentsPruned, st)
	}
	if st.SegmentsScanned != 1 {
		t.Fatalf("scanned %d segments, want 1", st.SegmentsScanned)
	}

	// Unfiltered Count over the full span: all sidecar, no scan.
	s.ResetStats()
	flows, _, _, err := s.Count(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != 501 {
		t.Fatalf("Count = %d, want 501", flows)
	}
	st = s.Stats()
	if st.SegmentsAggregated != 10 || st.SegmentsScanned != 0 || st.RecordsScanned != 0 {
		t.Fatalf("unfiltered Count should be pure pushdown, stats %+v", st)
	}

	// Fully-covered filter ("proto tcp" when the store is all-TCP): still
	// pure pushdown.
	s.ResetStats()
	flows, _, _, err = s.Count(t.Context(), iv, nffilter.MustParse("proto tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if flows != 501 {
		t.Fatalf("proto tcp Count = %d, want 501", flows)
	}
	if st = s.Stats(); st.SegmentsAggregated != 10 || st.SegmentsScanned != 0 {
		t.Fatalf("covered-filter Count should push down, stats %+v", st)
	}
}

// TestParallelEarlyStopAndReuse checks ErrStopIteration semantics and the
// reused-record contract under the parallel merger.
func TestParallelEarlyStopAndReuse(t *testing.T) {
	s := cancelStore(t, 4, 2000)
	s.SetParallelism(4)
	defer s.SetParallelism(0)

	n := 0
	var ptrs map[*flow.Record]bool
	err := s.Query(t.Context(), flow.Interval{Start: 0, End: 1200}, nil, func(r *flow.Record) error {
		if ptrs == nil {
			ptrs = map[*flow.Record]bool{}
		}
		ptrs[r] = true
		n++
		if n == 700 {
			return ErrStopIteration
		}
		return nil
	})
	if err != nil {
		t.Fatalf("early stop surfaced error: %v", err)
	}
	if n != 700 {
		t.Fatalf("callback ran %d times, want 700", n)
	}
	if len(ptrs) != 1 {
		t.Fatalf("parallel merge used %d distinct record pointers, contract says 1", len(ptrs))
	}
}
