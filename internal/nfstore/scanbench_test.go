package nfstore

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// Scan-path benchmarks comparing the v1 fixed-row and v2 columnar
// formats on the workload the root-cause loop actually issues: a
// selective two-column filter ("proto udp and dst port 53") over a trace
// where the matching flows are an anomaly concentrated in time —
// the paper's extraction query shape. The "uniform" variant spreads the
// matches evenly instead, the worst case for v2's block skipping;
// "clustered" is where late materialization pays. cmd/benchreport -exp
// scan prints the same comparison as a table; docs/evaluation.md records
// the numbers.

const (
	benchRecords = 200_000
	benchBins    = 4
)

// benchFill populates a store. clustered=false draws every record from
// the background mix with ~4% UDP:53; clustered=true keeps UDP:53 out of
// the background and injects the same volume of matches as one
// anomaly burst in the third bin.
func benchFill(b *testing.B, s *Store, clustered bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	span := uint32(benchBins * 300)
	bgPorts := []uint16{22, 80, 443, 8080}
	n := benchRecords
	if clustered {
		n = benchRecords * 96 / 100
	}
	for i := 0; i < n; i++ {
		r := randRecord(rng, span)
		if clustered && r.Proto == flow.ProtoUDP && r.DstPort == 53 {
			r.DstPort = bgPorts[rng.Intn(len(bgPorts))]
		}
		if err := s.Add(&r); err != nil {
			b.Fatal(err)
		}
	}
	if clustered {
		for i := 0; i < benchRecords-n; i++ {
			r := flow.Record{
				Start:   2*300 + uint32(rng.Intn(40)),
				SrcIP:   flow.IPFromOctets(10, 0, 3, byte(rng.Intn(200))),
				DstIP:   flow.IPFromOctets(192, 0, 2, 7),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 53,
				Proto:   flow.ProtoUDP,
				Packets: uint64(1 + rng.Intn(10)),
			}
			r.Bytes = r.Packets * 120
			if err := s.Add(&r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
}

func benchScanStore(b *testing.B, format uint16, clustered bool) *Store {
	b.Helper()
	s, err := CreateFormat(b.TempDir(), 300, format)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	benchFill(b, s, clustered)
	return s
}

func benchCases(b *testing.B, run func(b *testing.B, s *Store, f *nffilter.Filter, iv flow.Interval)) {
	f, err := nffilter.Parse("proto udp and dst port 53")
	if err != nil {
		b.Fatal(err)
	}
	iv := flow.Interval{Start: 0, End: benchBins * 300}
	for _, tc := range []struct {
		name      string
		format    uint16
		clustered bool
	}{
		{"v1/clustered", FormatV1, true},
		{"v2/clustered", FormatV2, true},
		{"v1/uniform", FormatV1, false},
		{"v2/uniform", FormatV2, false},
	} {
		s := benchScanStore(b, tc.format, tc.clustered)
		b.Run(tc.name, func(b *testing.B) {
			run(b, s, f, iv)
			b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
		})
	}
}

// BenchmarkStoreQuery measures filtered record materialization (the
// extraction scan feeding the miner).
func BenchmarkStoreQuery(b *testing.B) {
	benchCases(b, func(b *testing.B, s *Store, f *nffilter.Filter, iv flow.Interval) {
		for i := 0; i < b.N; i++ {
			got := 0
			err := s.Query(context.Background(), iv, f, func(*flow.Record) error {
				got++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if got == 0 {
				b.Fatal("filter matched nothing")
			}
		}
	})
}

// BenchmarkStoreCount measures the filtered Count aggregate (column
// projection plus block-level pushdown).
func BenchmarkStoreCount(b *testing.B) {
	benchCases(b, func(b *testing.B, s *Store, f *nffilter.Filter, iv flow.Interval) {
		for i := 0; i < b.N; i++ {
			flows, _, _, err := s.Count(context.Background(), iv, f)
			if err != nil {
				b.Fatal(err)
			}
			if flows == 0 {
				b.Fatal("filter matched nothing")
			}
		}
	})
}

// BenchmarkStoreTopN measures the filtered TopN aggregate (nfdump's -s
// statistic: the heaviest destination addresses by packets), checked
// against a reference computed once per store from the materialized
// records, outside the timing.
func BenchmarkStoreTopN(b *testing.B) {
	refs := map[*Store][]KeyCount{}
	benchCases(b, func(b *testing.B, s *Store, f *nffilter.Filter, iv flow.Interval) {
		want, ok := refs[s]
		if !ok {
			recs, err := s.Records(context.Background(), iv, f)
			if err != nil {
				b.Fatal(err)
			}
			want = refTopN(recs, flow.FeatDstIP, ByPackets, 10)
			if len(want) == 0 {
				b.Fatal("filter matched nothing")
			}
			refs[s] = want
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			got, err := s.TopN(context.Background(), iv, f, flow.FeatDstIP, ByPackets, 10)
			if err != nil {
				b.Fatal(err)
			}
			if !slices.Equal(got, want) {
				b.Fatalf("TopN = %v, want %v", got, want)
			}
		}
	})
}
