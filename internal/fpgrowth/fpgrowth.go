package fpgrowth

import (
	"context"
	"sort"

	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
)

// Options is the shared miner configuration (see miner.Options), so the
// built-in miners are interchangeable.
type Options = miner.Options

// The one FP-growth serves two registry names: "fpgrowth" mines the full
// canonical result, and "fda" is the same run with the FDA-style filters
// of Options.Prefilter applied.
func init() {
	miner.MustRegister("fpgrowth", func() miner.Miner { return miner.Func(Mine) })
	miner.MustRegister("fda", func() miner.Miner {
		return miner.Func(func(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
			return mine(ctx, ds, opts, opts.Prefilter)
		})
	})
}

// node is one FP-tree node.
type node struct {
	item     itemset.Item
	count    uint64
	parent   *node
	children map[itemset.Item]*node
	next     *node // header-table chain of nodes holding the same item
}

// tree is an FP-tree with its header table.
type tree struct {
	root   *node
	heads  map[itemset.Item]*node  // first node per item
	counts map[itemset.Item]uint64 // total support per item
}

func newTree() *tree {
	return &tree{
		root:   &node{children: make(map[itemset.Item]*node)},
		heads:  make(map[itemset.Item]*node),
		counts: make(map[itemset.Item]uint64),
	}
}

// insert adds one (sorted-by-order) item path with the given weight.
func (t *tree) insert(items []itemset.Item, weight uint64) {
	cur := t.root
	for _, it := range items {
		child, ok := cur.children[it]
		if !ok {
			child = &node{item: it, parent: cur, children: make(map[itemset.Item]*node)}
			cur.children[it] = child
			child.next = t.heads[it]
			t.heads[it] = child
		}
		child.count += weight
		t.counts[it] += weight
		cur = child
	}
}

// Mine returns all itemsets with support >= opts.MinSupport in the chosen
// dimension, canonically sorted; the result is element-for-element equal to
// apriori.Mine on the same input. opts.Prefilter is ignored. Cancelling
// ctx aborts mining between conditional-tree expansions and returns
// ctx.Err().
func Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	return mine(ctx, ds, opts, false)
}

// mine is FP-growth over ds. With filter set, only items that pass
// miner.SignificantItems enter the tree, and miner.LiftCut trims the
// mined sets; the result is then a subset of Mine's with equal supports.
func mine(ctx context.Context, ds *itemset.Dataset, opts Options, filter bool) ([]itemset.Frequent, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	maxLen := opts.MaxLen
	if maxLen <= 0 || maxLen > flow.NumFeatures {
		maxLen = flow.NumFeatures
	}

	// Pass 1: global item supports.
	support := make(map[itemset.Item]uint64)
	for i := 0; i < ds.Len(); i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		w := tx.Weight(opts.ByPackets)
		for _, it := range tx.Items {
			support[it] += w
		}
	}
	total := ds.Total(opts.ByPackets)
	kept := support
	if filter {
		kept = miner.SignificantItems(support, total, miner.Significance)
	}

	// Global item order over the kept frequent items: descending support,
	// ties by item value, so that every transaction inserts items in one
	// canonical order and a filtered run mines a sub-tree of the full one.
	order := make(map[itemset.Item]int, len(kept))
	{
		items := make([]itemset.Item, 0, len(kept))
		for it, c := range kept {
			if c >= opts.MinSupport {
				items = append(items, it)
			}
		}
		sort.Slice(items, func(i, j int) bool {
			if support[items[i]] != support[items[j]] {
				return support[items[i]] > support[items[j]]
			}
			return items[i] < items[j]
		})
		for rank, it := range items {
			order[it] = rank
		}
	}

	// Pass 2: build the tree over ordered items only.
	t := newTree()
	var path []itemset.Item
	for i := 0; i < ds.Len(); i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		path = path[:0]
		for _, it := range tx.Items {
			if _, ok := order[it]; ok {
				path = append(path, it)
			}
		}
		if len(path) == 0 {
			continue
		}
		sort.Slice(path, func(a, b int) bool { return order[path[a]] < order[path[b]] })
		t.insert(path, tx.Weight(opts.ByPackets))
	}

	var result []itemset.Frequent
	if err := mineTree(ctx, t, nil, opts.MinSupport, maxLen, &result); err != nil {
		return nil, err
	}
	if filter {
		result = miner.LiftCut(result, support, total, miner.MinLift)
	}
	itemset.SortFrequent(result)
	return result, nil
}

// mineTree recursively mines t, emitting each frequent item of t extended
// with the current suffix, then recursing on the item's conditional tree.
func mineTree(ctx context.Context, t *tree, suffix itemset.Set, minSupport uint64, maxLen int, out *[]itemset.Frequent) error {
	if len(suffix) >= maxLen {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Deterministic iteration order over header items.
	items := make([]itemset.Item, 0, len(t.heads))
	for it := range t.heads {
		if t.counts[it] >= minSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	for _, it := range items {
		newSet := suffix.Union(itemset.Set{it})
		*out = append(*out, itemset.Frequent{Items: newSet, Support: t.counts[it]})
		if len(newSet) >= maxLen {
			continue
		}
		cond := conditionalTree(t, it)
		if len(cond.heads) > 0 {
			if err := mineTree(ctx, cond, newSet, minSupport, maxLen, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// conditionalTree builds the conditional FP-tree of item: the tree of
// prefix paths leading to nodes holding the item, weighted by those nodes'
// counts.
func conditionalTree(t *tree, it itemset.Item) *tree {
	cond := newTree()
	var prefix []itemset.Item
	for n := t.heads[it]; n != nil; n = n.next {
		prefix = prefix[:0]
		for p := n.parent; p != nil && p.parent != nil; p = p.parent {
			prefix = append(prefix, p.item)
		}
		if len(prefix) == 0 {
			continue
		}
		// prefix was collected leaf→root; reverse to root→leaf so the
		// conditional tree shares structure the same way.
		for i, j := 0, len(prefix)-1; i < j; i, j = i+1, j-1 {
			prefix[i], prefix[j] = prefix[j], prefix[i]
		}
		cond.insert(prefix, n.count)
	}
	return cond
}
