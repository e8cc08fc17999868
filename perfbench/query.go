package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"time"

	rootcause "repro"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// Read-call kinds of the query mix.
const (
	kindQuery = "query"
	kindCount = "count"
	kindTopN  = "topn"
)

// queryOp is one read call of the operator's drill-down mix.
type queryOp struct {
	name   string
	kind   string
	iv     flow.Interval
	filter *nffilter.Filter
}

// answer summarizes one read call's result for the equality checks:
// Query → (records, packets, order-independent record checksum); Count
// → (flows, packets, bytes); TopN → (keys, total weight, ordered hash).
type answer struct {
	flows, packets, sum uint64
	returned            uint64 // records handed to a Query callback
}

// do runs the op against store.
func (q *queryOp) do(ctx context.Context, store nfstore.Engine) (answer, error) {
	var a answer
	switch q.kind {
	case kindQuery:
		err := store.Query(ctx, q.iv, q.filter, func(r *flow.Record) error {
			a.flows++
			a.packets += r.Packets
			a.sum += recordHash(r)
			return nil
		})
		a.returned = a.flows
		return a, err
	case kindCount:
		var err error
		a.flows, a.packets, a.sum, err = store.Count(ctx, q.iv, q.filter)
		return a, err
	default:
		top, err := store.TopN(ctx, q.iv, q.filter, flow.FeatDstIP, nfstore.ByPackets, 10)
		h := fnv.New64a()
		for _, kc := range top {
			fmt.Fprintf(h, "%d=%d;", kc.Value, kc.Count)
			a.packets += kc.Count
		}
		a.flows, a.sum = uint64(len(top)), h.Sum64()
		return a, err
	}
}

// recordHash mixes every field of r into 64 bits; summed over a result
// it gives an order-independent checksum cheap enough not to weigh on
// the timed call.
func recordHash(r *flow.Record) uint64 {
	h := uint64(r.Start)<<32 | uint64(r.Dur)
	h = (h ^ uint64(r.SrcIP)<<32 ^ uint64(r.DstIP)) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(r.SrcPort)<<48 ^ uint64(r.DstPort)<<32 ^ uint64(r.Proto)<<24 ^ uint64(r.Flags)<<16 ^ uint64(r.Router)) * 0xbf58476d1ce4e5b9
	h = (h ^ r.Packets) * 0x94d049bb133111eb
	h = (h ^ r.Bytes ^ uint64(r.Anno)<<56) * 0x9e3779b97f4a7c15
	return h ^ h>>31
}

// mixes holds the query mix's ops: the broad ones by pattern letter,
// and the two rotating classes.
type mixes struct {
	broad     map[byte]*queryOp // unprunable filters over the whole span
	selective []*queryOp        // zone-map-prunable filters over the whole span
	itemsets  []*queryOp        // each extracted itemset's filter over its bin
}

// buildMix assembles the drill-down ops: broad filters on the uniform
// background, selective filters on the anomalies' hosts, and every
// itemset the extractions ranked, over its alarm's bin.
func buildMix(span flow.Interval, results []rootcause.ExtractResult) (*mixes, error) {
	m := &mixes{broad: map[byte]*queryOp{}}
	for _, d := range []struct {
		letter           byte
		kind, name, expr string
	}{
		{'w', kindQuery, "web", "dst port 80 or dst port 443"},
		{'u', kindQuery, "udp", "proto udp"},
		{'c', kindCount, "multi-packet", "packets > 1"},
		{'t', kindTopN, "tcp-top-dst", "proto tcp"},
		{'s', kindQuery, "victim", "dst ip 198.19.7.7"},
		{'s', kindCount, "scanner", "src ip 10.200.3.3"},
	} {
		f, err := nffilter.Parse(d.expr)
		if err != nil {
			return nil, err
		}
		op := &queryOp{name: d.name, kind: d.kind, iv: span, filter: f}
		if d.letter == 's' {
			m.selective = append(m.selective, op)
		} else {
			m.broad[d.letter] = op
		}
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("alarm %s: %w", r.AlarmID, r.Err)
		}
		for i := range r.Result.Itemsets {
			m.itemsets = append(m.itemsets, &queryOp{
				name: fmt.Sprintf("%s#%d", r.AlarmID, i+1), kind: kindQuery,
				iv: r.Result.Alarm.Interval, filter: r.Result.Itemsets[i].Filter(),
			})
		}
	}
	if len(m.itemsets) == 0 {
		return nil, fmt.Errorf("no itemsets extracted for the query mix")
	}
	return m, nil
}

// sequence returns the i-th op of a mix cycle. Each pattern letter is a
// slot: 'w', 'u', 'c' and 't' name one broad op each, 's' and 'i' take
// the next selective or itemset op in turn, so every op recurs at a
// fixed rate.
func (m *mixes) sequence(pattern string, i int) *queryOp {
	lap, pos := i/len(pattern), i%len(pattern)
	if op, ok := m.broad[pattern[pos]]; ok {
		return op
	}
	slot := pattern[pos : pos+1]
	class := m.itemsets
	if slot == "s" {
		class = m.selective
	}
	perLap, before := strings.Count(pattern, slot), strings.Count(pattern[:pos], slot)
	return class[(lap*perLap+before)%len(class)]
}

// all returns every distinct op.
func (m *mixes) all() []*queryOp {
	var out []*queryOp
	for _, letter := range []byte("wuct") {
		out = append(out, m.broad[letter])
	}
	out = append(out, m.selective...)
	return append(out, m.itemsets...)
}

// Mix patterns: one letter per call, see sequence. The costs rank
// itemset < selective < count < udp < topn < web, and the weights put
// each reported percentile inside one op's band rather than on the edge
// between two, so the percentile reads one op's cost, not a coin toss
// between neighbours. The in-process drill-down (14 calls a lap) has
// its median in the count band and its p95 in the web band; the cluster
// mix (16 a lap) is weighted toward calls that return many records,
// with its median in the udp band and its p95 in the web band.
const (
	queryPattern   = "wiuscitiwuscti"
	clusterPattern = "wuwcuwsiwucwusit"
)

// queryResult is one timed read call.
type queryResult struct {
	op  *queryOp
	lat time.Duration
	ans answer
	err error
}

// queryLoop issues the mix from one client, back to back, until dur has
// passed. It returns the calls, their wall time and process CPU time.
// With a tracer each call records a span with its scan counters (local
// stores only: withStats reads them per call).
func queryLoop(ctx context.Context, store nfstore.Engine, m *mixes, pattern string, dur time.Duration, tr *tracer, withStats bool) ([]queryResult, time.Duration, time.Duration) {
	var out []queryResult
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; time.Since(t0) < dur; i++ {
		op := m.sequence(pattern, i)
		var st0 nfstore.Stats
		if withStats {
			st0 = store.Stats()
		}
		s := time.Now()
		ans, err := op.do(ctx, store)
		end := time.Now()
		out = append(out, queryResult{op: op, lat: end.Sub(s), ans: ans, err: err})
		if tr != nil {
			sp := span{Layer: "nfstore", Name: op.kind, Counts: map[string]float64{"returned": float64(ans.returned)}}
			if withStats {
				sp.Counts["records_scanned"] = float64(statsDelta(store.Stats(), st0).RecordsScanned)
			}
			sp.Req = tr.id()
			sp.ID = sp.Req
			tr.record(sp, s, end)
		}
	}
	return out, time.Since(t0), cpuTime() - cpu0
}

// reference answers every distinct op once against store.
func reference(ctx context.Context, store nfstore.Engine, m *mixes) (map[*queryOp]answer, error) {
	ref := make(map[*queryOp]answer)
	for _, op := range m.all() {
		a, err := op.do(ctx, store)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.name, err)
		}
		ref[op] = a
	}
	return ref, nil
}

// checkQueries counts the calls whose answer errored or differs from
// the reference.
func checkQueries(results []queryResult, ref map[*queryOp]answer) (attempted, failed int) {
	for _, r := range results {
		attempted++
		if r.err != nil || r.ans != ref[r.op] {
			failed++
		}
	}
	return attempted, failed
}

// extractAll runs every filed alarm's extraction once (prep for the
// mix, untimed).
func extractAll(ctx context.Context, st *storeSys) []rootcause.ExtractResult {
	ids := make([]string, len(st.alarms))
	for i, a := range st.alarms {
		ids[i] = a.id
	}
	byID := make(map[string]rootcause.ExtractResult, len(ids))
	for r := range st.sys.ExtractAll(ctx, ids, rootcause.WithConcurrency(2)) {
		byID[r.AlarmID] = r
	}
	out := make([]rootcause.ExtractResult, len(ids)) // alarm order, not completion order
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out
}

// addQueries turns the untraced calls into the outcome's end-to-end fields.
func (out *outcome) addQueries(results []queryResult, elapsed, cpu time.Duration, ref map[*queryOp]answer) {
	printMix(results)
	for _, r := range results {
		out.latMS = append(out.latMS, ms(r.lat))
	}
	out.ops, out.elapsed, out.cpu = len(results), elapsed, cpu
	a, f := checkQueries(results, ref)
	out.attempted += a
	out.failed += f
}

// tracedQueries runs the traced pass and fills the read-path metrics
// from the window's scan counters and allocations.
func tracedQueries(ctx context.Context, tr *tracer, out *outcome, store nfstore.Engine, m *mixes, pattern string, dur time.Duration, withStats bool, ref map[*queryOp]answer) ([]queryResult, map[string]float64) {
	st0, m0 := store.Stats(), readMem()
	results, _, _ := queryLoop(ctx, store, m, pattern, dur, tr, withStats)
	mem, stats := readMem().sub(m0), statsDelta(store.Stats(), st0)
	var busy time.Duration
	var returned uint64
	for _, r := range results {
		busy += r.lat
		returned += r.ans.returned
		out.tracedMS = append(out.tracedMS, ms(r.lat))
	}
	a, f := checkQueries(results, ref)
	out.attempted += a
	out.failed += f
	layers := map[string]float64{}
	readPath(layers, stats, busy, returned, mem)
	return results, layers
}

// runQuery is the operator's drill-down: one client issues a fixed mix
// of Query/Count/TopN calls on the extract workload's store.
func runQuery(e *env) (*outcome, error) {
	out := &outcome{}
	st, err := repeatSetup(e, out, buildLocal, storeScenario)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.dropRecords()
	ctx := context.Background()
	m, err := buildMix(st.c.truth.Span, extractAll(ctx, st))
	if err != nil {
		return nil, err
	}
	store := st.sys.Store()
	// The first pass is the reference and the warm-up.
	ref, err := reference(ctx, store, m)
	if err != nil {
		return nil, err
	}
	results, elapsed, cpu := queryLoop(ctx, store, m, queryPattern, e.seconds, nil, false)
	out.addQueries(results, elapsed, cpu, ref)
	if e.trace {
		_, layers := tracedQueries(ctx, e.tr, out, store, m, queryPattern, e.seconds, true, ref)
		storeLayers(layers, st)
		out.layers = layers
	}
	return out, nil
}

// runCluster is the query mix through the shard/HTTP hop: a 2-shard
// copy of the store served by two loopback peers, opened with
// WithPeers. Every answer must equal the in-process answer.
func runCluster(e *env) (*outcome, error) {
	out := &outcome{}
	cl, err := repeatSetup(e, out, buildCluster, storeScenario)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	ctx := context.Background()

	// The in-process reference: the same corpus in one local store.
	dir := filepath.Join(e.dir, "local")
	local, err := buildLocal(nil, dir, cl.c)
	if err != nil {
		return nil, err
	}
	defer local.close()
	cl.dropRecords()
	m, err := buildMix(cl.c.truth.Span, extractAll(ctx, local))
	if err != nil {
		return nil, err
	}
	ref, err := reference(ctx, local.sys.Store(), m)
	if err != nil {
		return nil, err
	}
	remote := cl.sys.Store()
	for _, op := range m.all() { // warm-up, checked like every call
		a, err := op.do(ctx, remote)
		out.attempted++
		if err != nil || a != ref[op] {
			out.failed++
		}
	}
	results, elapsed, cpu := queryLoop(ctx, remote, m, clusterPattern, e.seconds, nil, false)
	out.addQueries(results, elapsed, cpu, ref)
	if e.trace {
		traced, layers := tracedQueries(ctx, e.tr, out, remote, m, clusterPattern, e.seconds, false, ref)
		// The hop: each traced call minus the same call in-process.
		var hop time.Duration
		var returned uint64
		for _, r := range traced {
			s := time.Now()
			if _, err := r.op.do(ctx, local.sys.Store()); err != nil {
				return nil, err
			}
			hop += r.lat - time.Since(s)
			returned += r.ans.returned
		}
		layers["shardstore.hop_ms"] = ratio(ms(hop), float64(len(traced)))
		layers["shardstore.hop_ns_per_returned_rec"] = ratio(float64(hop), float64(returned))
		storeLayers(layers, cl)
		out.layers = layers
	}
	return out, nil
}

// buildCluster creates a 2-shard store over the corpus, serves each
// shard from its own loopback peer, and opens the cluster through
// WithPeers.
func buildCluster(tr *tracer, dir string, c *corpus) (*storeSys, error) {
	sys, err := rootcause.Create(rootcause.Config{StoreDir: dir}, rootcause.WithShards(2))
	if err != nil {
		return nil, err
	}
	ws, err := load(tr, sys.Store(), dir, c.recs)
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	peers, stop, err := eval.ServeShardDirs(dir)
	if err != nil {
		return nil, err
	}
	csys, err := rootcause.Open(rootcause.Config{}, rootcause.WithPeers(peers))
	if err != nil {
		stop()
		return nil, err
	}
	return &storeSys{sys: csys, c: c, write: ws, stop: stop}, nil
}

// printMix prints each op class's mean latency and call count.
func printMix(results []queryResult) {
	type agg struct {
		n   int
		sum time.Duration
		ret uint64
	}
	by := map[string]*agg{}
	var names []string
	for _, r := range results {
		name := r.op.kind + ":" + r.op.name
		if strings.Contains(r.op.name, "#") {
			name = "query:itemset"
		}
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
			names = append(names, name)
		}
		a.n++
		a.sum += r.lat
		a.ret += r.ans.returned
	}
	for _, name := range names {
		a := by[name]
		fmt.Printf("mix    %-24s %10.3f ms mean  n=%d returned/call=%d\n", name, ms(a.sum)/float64(a.n), a.n, a.ret/uint64(a.n))
	}
}
