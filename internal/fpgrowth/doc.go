// Package fpgrowth implements the FP-Growth frequent itemset mining
// algorithm (Han, Pei & Yin, SIGMOD'00) over the same flow-transaction
// datasets as package apriori.
//
// The paper's system uses Apriori; FP-Growth is included as the natural
// baseline any FIM-based system would be compared against (experiment E8
// in DESIGN.md) and as an independent implementation for cross-checking
// mining correctness: both miners must produce identical itemset/support
// results on every dataset, a property the test suites of both packages
// enforce.
//
// The package registers its one FP-growth under two names: "fpgrowth",
// and "fda", which with miner.Options.Prefilter set drops items that fail
// miner.SignificantItems before building the tree and applies
// miner.LiftCut to the mined itemsets — the FP-growth-plus-filters shape
// of Fast Dimensional Analysis.
package fpgrowth
