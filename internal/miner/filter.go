package miner

import (
	"math"

	"repro/internal/flow"
	"repro/internal/itemset"
)

// The thresholds of the FDA-style filters that Options.Prefilter enables.
const (
	// Significance is the one-sided z-score an item must clear against
	// the uniform null to survive the pre-filter: two standard deviations,
	// the conventional ~97.7% one-sided confidence cut.
	Significance = 2.0
	// MinLift keeps itemsets at least as frequent as independence of
	// their items would predict (lift >= 1).
	MinLift = 1.0
)

// SignificantItems applies the per-item pre-filter to the item supports
// of a dataset whose total weight is total. The null model spreads a
// feature's weight uniformly over its k observed values (share p0 = 1/k);
// an item survives when its observed weight w clears the one-sided z-test
// against the Binomial(total, p0) null:
//
//	z = (w − total·p0) / sqrt(total·p0·(1−p0)) >= sig
//
// Features with a single observed value carry nothing to test and always
// survive, as does everything when the dataset has no weight at all.
func SignificantItems(support map[itemset.Item]uint64, total uint64, sig float64) map[itemset.Item]uint64 {
	if total == 0 {
		return support
	}
	valuesPerFeature := make(map[flow.Feature]int)
	for it := range support {
		valuesPerFeature[it.Feature()]++
	}
	kept := make(map[itemset.Item]uint64, len(support))
	for it, w := range support {
		k := valuesPerFeature[it.Feature()]
		if k <= 1 {
			kept[it] = w
			continue
		}
		p0 := 1 / float64(k)
		mean := float64(total) * p0
		sd := math.Sqrt(float64(total) * p0 * (1 - p0))
		if (float64(w)-mean)/sd >= sig {
			kept[it] = w
		}
	}
	return kept
}

// LiftCut drops mined itemsets whose lift — observed support share over
// the independence expectation of their items' shares — falls below
// minLift, filtering sets in place. A single item's lift is exactly 1
// (its observation is its own expectation), so level-1 sets survive any
// minLift <= 1.
func LiftCut(sets []itemset.Frequent, support map[itemset.Item]uint64, total uint64, minLift float64) []itemset.Frequent {
	if total == 0 {
		return sets
	}
	out := sets[:0]
	for _, fr := range sets {
		obs := float64(fr.Support) / float64(total)
		expect := 1.0
		for _, it := range fr.Items {
			// Item support >= set support >= MinSupport >= 1, so the
			// expectation is always positive.
			expect *= float64(support[it]) / float64(total)
		}
		if obs/expect >= minLift {
			out = append(out, fr)
		}
	}
	return out
}
