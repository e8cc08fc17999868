package miner

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/flow"
	"repro/internal/itemset"
)

func TestSignificantItems(t *testing.T) {
	http := itemset.NewItem(flow.FeatDstPort, 80)
	https := itemset.NewItem(flow.FeatDstPort, 443)
	ssh := itemset.NewItem(flow.FeatDstPort, 22)
	tcp := itemset.NewItem(flow.FeatProto, uint32(flow.ProtoTCP))
	// Three dstPort values over 100 transactions: p0 = 1/3, mean 33.3,
	// sd 4.71, so z(80) = 7.78, z(443) = -2.83, z(22) = -4.95. Proto has
	// a single observed value and is never tested.
	support := map[itemset.Item]uint64{http: 70, https: 20, ssh: 10, tcp: 100}
	cases := []struct {
		sig  float64
		want []itemset.Item
	}{
		{sig: 2, want: []itemset.Item{http, tcp}},
		{sig: 7.7, want: []itemset.Item{http, tcp}},
		{sig: 7.8, want: []itemset.Item{tcp}},
		{sig: -3, want: []itemset.Item{http, https, tcp}},
		{sig: -5, want: []itemset.Item{ssh, http, https, tcp}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.sig), func(t *testing.T) {
			got := SignificantItems(support, 100, tc.sig)
			if keys := sortedItems(got); fmt.Sprint(keys) != fmt.Sprint(tc.want) {
				t.Fatalf("kept %v, want %v", keys, tc.want)
			}
			for it, w := range got {
				if w != support[it] {
					t.Fatalf("%v: weight %d, want %d", it, w, support[it])
				}
			}
		})
	}

	t.Run("total 0 keeps everything", func(t *testing.T) {
		if got := SignificantItems(support, 0, 100); len(got) != len(support) {
			t.Fatalf("kept %d of %d items", len(got), len(support))
		}
	})
	t.Run("single-valued feature survives any threshold", func(t *testing.T) {
		one := map[itemset.Item]uint64{tcp: 1}
		if got := SignificantItems(one, 1_000_000, 1e9); got[tcp] != 1 {
			t.Fatalf("single-valued item dropped: %v", got)
		}
	})
}

func TestLiftCut(t *testing.T) {
	src := itemset.NewItem(flow.FeatSrcIP, 1)
	dst1 := itemset.NewItem(flow.FeatDstIP, 1)
	dst2 := itemset.NewItem(flow.FeatDstIP, 2)
	support := map[itemset.Item]uint64{src: 50, dst1: 50, dst2: 50}
	// Over 100 transactions each item has share 0.5, so a pair's
	// independence expectation is 0.25: lift 1.6 for {src,dst1} (40) and
	// 0.4 for {src,dst2} (10). The singleton's lift is exactly 1.
	sets := func() []itemset.Frequent {
		return []itemset.Frequent{
			{Items: itemset.Set{src}, Support: 50},
			{Items: itemset.Set{src, dst1}, Support: 40},
			{Items: itemset.Set{src, dst2}, Support: 10},
		}
	}
	cases := []struct {
		minLift float64
		kept    []uint64 // supports of the kept rows, in input order
	}{
		{minLift: 0.3, kept: []uint64{50, 40, 10}},
		{minLift: 0.5, kept: []uint64{50, 40}},
		{minLift: 1, kept: []uint64{50, 40}},
		{minLift: 1.0000001, kept: []uint64{40}},
		{minLift: 1.6, kept: []uint64{40}},
		{minLift: 1.7, kept: nil},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.minLift), func(t *testing.T) {
			var kept []uint64
			for _, fr := range LiftCut(sets(), support, 100, tc.minLift) {
				kept = append(kept, fr.Support)
			}
			if fmt.Sprint(kept) != fmt.Sprint(tc.kept) {
				t.Fatalf("kept supports %v, want %v", kept, tc.kept)
			}
		})
	}

	t.Run("total 0 keeps everything", func(t *testing.T) {
		if got := LiftCut(sets(), support, 0, 100); len(got) != 3 {
			t.Fatalf("kept %d of 3 sets", len(got))
		}
	})
	t.Run("singleton lift is 1", func(t *testing.T) {
		for _, w := range []uint64{1, 7, 99, 100} {
			one := []itemset.Frequent{{Items: itemset.Set{src}, Support: w}}
			sup := map[itemset.Item]uint64{src: w}
			if got := LiftCut(one, sup, 100, 1); len(got) != 1 {
				t.Fatalf("singleton with support %d dropped at MinLift 1", w)
			}
			if got := LiftCut(one, sup, 100, 1.0000001); len(got) != 0 {
				t.Fatalf("singleton with support %d kept above lift 1", w)
			}
		}
	})
}

// sortedItems lists m's keys in ascending item order.
func sortedItems(m map[itemset.Item]uint64) []itemset.Item {
	items := make([]itemset.Item, 0, len(m))
	for it := range m {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}
