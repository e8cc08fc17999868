package fpgrowth

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/apriori"
	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/stats"
)

func randomDataset(seed uint64, n int) *itemset.Dataset {
	rng := stats.NewRNG(seed)
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	recs := make([]flow.Record, n)
	for i := range recs {
		pk := uint64(rng.Intn(50) + 1)
		recs[i] = flow.Record{
			Start:   1,
			SrcIP:   flow.IP(rng.Intn(4)),
			DstIP:   flow.IP(rng.Intn(4)),
			SrcPort: uint16(rng.Intn(4)),
			DstPort: uint16(rng.Intn(4)),
			Proto:   protos[rng.Intn(3)],
			Packets: pk,
			Bytes:   pk * 40,
		}
	}
	return itemset.FromRecords(recs)
}

// assertSameResults compares two canonical mining results exactly.
func assertSameResults(t *testing.T, a, b []itemset.Frequent, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: fpgrowth found %d itemsets, apriori %d", label, len(a), len(b))
	}
	am := make(map[string]uint64, len(a))
	for _, fr := range a {
		am[fr.Items.Key()] = fr.Support
	}
	for _, fr := range b {
		sup, ok := am[fr.Items.Key()]
		if !ok {
			t.Fatalf("%s: apriori found %v, fpgrowth did not", label, fr)
		}
		if sup != fr.Support {
			t.Fatalf("%s: %v support %d (fpgrowth) vs %d (apriori)", label, fr.Items, sup, fr.Support)
		}
	}
}

func TestMatchesApriori(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		ds := randomDataset(seed, 200)
		for _, minSup := range []uint64{1, 5, 25, 80} {
			opts := Options{MinSupport: minSup}
			fp, err := Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			ap, err := apriori.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fp, ap, "flows")
		}
	}
}

func TestMatchesAprioriByPackets(t *testing.T) {
	for seed := uint64(20); seed <= 23; seed++ {
		ds := randomDataset(seed, 150)
		for _, minSup := range []uint64{50, 400, 2000} {
			opts := Options{MinSupport: minSup, ByPackets: true}
			fp, err := Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			ap, err := apriori.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fp, ap, "packets")
		}
	}
}

func TestMaxLenAgreement(t *testing.T) {
	ds := randomDataset(9, 120)
	for maxLen := 1; maxLen <= 5; maxLen++ {
		opts := Options{MinSupport: 4, MaxLen: maxLen}
		fp, err := Mine(t.Context(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := apriori.Mine(t.Context(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fp, ap, "maxlen")
		for _, fr := range fp {
			if fr.Items.Len() > maxLen {
				t.Fatalf("MaxLen=%d violated: %v", maxLen, fr)
			}
		}
	}
}

func TestZeroSupportRejected(t *testing.T) {
	ds := randomDataset(1, 10)
	if _, err := Mine(t.Context(), ds, Options{MinSupport: 0}); err != apriori.ErrZeroSupport {
		t.Fatalf("got %v, want ErrZeroSupport", err)
	}
}

func TestEmptyDataset(t *testing.T) {
	got, err := Mine(t.Context(), itemset.FromRecords(nil), Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty dataset must mine to nothing")
	}
}

func TestMineMaximalAgreement(t *testing.T) {
	ds := randomDataset(31, 250)
	opts := Options{MinSupport: 12}
	fp, err := Mine(t.Context(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := apriori.Mine(t.Context(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, itemset.MaximalOnly(fp), itemset.MaximalOnly(ap), "maximal")
}

func TestQuickAgreementProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw, supRaw uint8) bool {
		size := int(sizeRaw%50) + 5
		minSup := uint64(supRaw%12) + 1
		ds := randomDataset(seed, size)
		opts := Options{MinSupport: minSup, ByPackets: seed%2 == 0}
		if opts.ByPackets {
			opts.MinSupport *= 20
		}
		fp, err1 := Mine(t.Context(), ds, opts)
		ap, err2 := apriori.Mine(t.Context(), ds, opts)
		if err1 != nil || err2 != nil || len(fp) != len(ap) {
			return false
		}
		m := make(map[string]uint64, len(fp))
		for _, fr := range fp {
			m[fr.Items.Key()] = fr.Support
		}
		for _, fr := range ap {
			if m[fr.Items.Key()] != fr.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMineCancelled(t *testing.T) {
	ds := randomDataset(3, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Mine(ctx, ds, Options{MinSupport: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Mine err = %v, want context.Canceled", err)
	}
}
