package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rootcause "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// maxTruthRank is the worst rank at which the true cause still counts
// as found.
const maxTruthRank = 3

// extractOp is one Submit→Wait round trip of the closed loop.
type extractOp struct {
	alarm int // index into storeSys.alarms
	lat   time.Duration
	res   *rootcause.Result
	err   error
	jt    jobTimes
	jtOK  bool
}

// runExtract is the paper's offline workflow: two clients submit
// extraction jobs round-robin over the filed alarms and wait for each.
func runExtract(e *env) (*outcome, error) {
	out := &outcome{}
	st, err := repeatSetup(e, out, buildLocal, storeScenario)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.dropRecords()
	ctx := context.Background()

	// Warm-up: one extraction per client, so caches and lazy set-up
	// (zone-map sidecars, pooled readers) are in place before timing.
	closedLoop(ctx, st, 0, nil)

	ops, elapsed, cpu := closedLoop(ctx, st, e.seconds, nil)
	out.elapsed, out.cpu = elapsed, cpu
	var all []extractOp
	for _, op := range ops {
		out.latMS = append(out.latMS, ms(op.lat))
	}
	out.ops = len(ops)
	all = append(all, ops...)

	var layers map[string]float64
	if e.trace {
		tr := e.tr
		traced, _, _ := closedLoop(ctx, st, e.seconds, tr)
		for _, op := range traced {
			out.tracedMS = append(out.tracedMS, ms(op.lat))
		}
		all = append(all, traced...)
		layers = map[string]float64{}
		var jts []jobTimes
		for _, op := range traced {
			if op.jtOK {
				jts = append(jts, op.jt)
			}
		}
		jobLayers(layers, jts)
		storeLayers(layers, st)
		ids := make([]string, len(st.alarms))
		for i, a := range st.alarms {
			ids[i] = a.id
		}
		results, err := attribution(ctx, tr, layers, ids, st.sys.Extract)
		if err != nil {
			return nil, err
		}
		if err := layerAlone(ctx, tr, layers, st, results); err != nil {
			return nil, err
		}
		attempted, failed, err := livePass(ctx, e, layers)
		if err != nil {
			return nil, fmt.Errorf("live pass: %w", err)
		}
		out.attempted += attempted
		out.failed += failed
		out.layers = layers
	}
	attempted, failed, err := checkExtractions(st, all)
	out.attempted += attempted
	out.failed += failed
	return out, err
}

// closedLoop runs runtime.NumCPU() clients (at most 2) that each submit
// an extraction job and wait for it, round-robin over the alarms, until
// dur has passed; dur 0 runs one operation per client. It returns the
// operations, the wall time until the last one finished, and the
// process CPU time over that window. With a tracer every operation
// records its spans: the round trip, the job's queue wait, run and
// hand-off, and the extraction phases inside the run.
func closedLoop(ctx context.Context, st *storeSys, dur time.Duration, tr *tracer) ([]extractOp, time.Duration, time.Duration) {
	clients := min(runtime.NumCPU(), 2)
	var (
		next atomic.Int64
		mu   sync.Mutex
		ops  []extractOp
		wg   sync.WaitGroup
	)
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(t0) < dur; first = false {
				op := extractOnce(ctx, st, int(next.Add(1)-1)%len(st.alarms), tr)
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
				if dur == 0 {
					return
				}
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(t0), cpuTime() - cpu0
}

// extractOnce is one Submit→Wait round trip.
func extractOnce(ctx context.Context, st *storeSys, alarm int, tr *tracer) extractOp {
	op := extractOp{alarm: alarm}
	opts := []rootcause.Option{rootcause.WithTransientJob()}
	var rec *phaseRec
	if tr != nil {
		rec = &phaseRec{}
		opts = append(opts, rootcause.WithProgress(rec.observe))
	}
	t0 := time.Now()
	id, err := st.sys.Submit(rootcause.JobRequest{AlarmID: st.alarms[alarm].id}, opts...)
	submitted := time.Now()
	var jr *rootcause.JobResult
	if err == nil {
		jr, err = st.sys.Wait(ctx, id)
	}
	end := time.Now()
	op.lat, op.err = end.Sub(t0), err
	if err != nil {
		return op
	}
	op.res = jr.Result
	op.jt, op.jtOK = timesOf(jr.Status, end)
	if tr != nil && op.jtOK {
		req := tr.id()
		tr.record(span{ID: req, Req: req, Layer: "client", Name: "submit_wait"}, t0, end)
		tr.record(span{Parent: req, Req: req, Layer: "jobs", Name: "submit"}, t0, submitted)
		tr.record(span{Parent: req, Req: req, Layer: "jobs", Name: "queued"}, jr.Status.SubmittedAt, *jr.Status.StartedAt)
		runID := tr.record(span{Parent: req, Req: req, Layer: "jobs", Name: "run"}, *jr.Status.StartedAt, *jr.Status.FinishedAt)
		recordPhases(tr, rec, runID, req, *jr.Status.FinishedAt, memSnap{})
		tr.record(span{Parent: req, Req: req, Layer: "jobs", Name: "handoff"}, *jr.Status.FinishedAt, end)
	}
	return op
}

// fingerprint renders a ranked result canonically, for the repeat check.
func fingerprint(res *rootcause.Result) string {
	var b strings.Builder
	for _, r := range res.Itemsets {
		fmt.Fprintf(&b, "%s|%d|%d|%v|%.12g;", r.Items.Key(), r.FlowSupport, r.PacketSupport, r.Dimensions, r.Score)
	}
	return b.String()
}

// checkExtractions scores the operations outside the timed region: an
// operation fails when it errored, when its ranked itemsets differ from
// the first result for the same alarm, or when that alarm's true cause
// does not rank in the top maxTruthRank.
func checkExtractions(st *storeSys, ops []extractOp) (attempted, failed int, err error) {
	ref := make(map[int]string)
	good := make(map[int]bool)
	for _, op := range ops {
		if op.err != nil || op.res == nil {
			continue
		}
		if _, ok := ref[op.alarm]; ok {
			continue
		}
		ref[op.alarm] = fingerprint(op.res)
		a := st.alarms[op.alarm]
		ts, err := eval.ScoreTruth(st.sys.Store(), a.alarm.Interval, op.res, st.c.truth, eval.DefaultScoreOptions())
		if err != nil {
			return 0, 0, err
		}
		attr := ts.Entries[a.entry]
		good[op.alarm] = attr.Attributed && attr.Rank <= maxTruthRank
		if !good[op.alarm] {
			fmt.Printf("check: alarm %s (%s) true cause rank %d\n", a.id, st.c.truth.Entries[a.entry].Kind, attr.Rank)
		}
	}
	for _, op := range ops {
		attempted++
		if op.err != nil || op.res == nil || !good[op.alarm] || fingerprint(op.res) != ref[op.alarm] {
			failed++
		}
	}
	return attempted, failed, nil
}

// layerAlone rebuilds each alarm's candidate dataset from outside the
// engine — the same Iter calls core's candidate selection makes, into
// itemset.NewBuilder — and times each layer on it alone: the store
// scan, the builder, every registered miner at the alarm's final tuned
// support in each dimension, and Dataset.SupportAll over the mined sets.
func layerAlone(ctx context.Context, tr *tracer, layers map[string]float64, st *storeSys, results map[string]*rootcause.Result) error {
	store := st.sys.Store()
	minCand := uint64(core.DefaultOptions().MinCandidates)
	var (
		scanBusy, buildBusy, supportBusy time.Duration
		scanMem                          memSnap
		scanStats                        nfstore.Stats
		flows                            uint64
		mineMS                           = map[string]float64{}
		mineBytes                        = map[string]float64{}
	)
	for _, a := range st.alarms {
		parent := tr.id()
		p0 := time.Now()
		recs, busy, stats, mem, err := scan(ctx, store, a.alarm.Interval, a.alarm.MetaFilter())
		if err != nil {
			return err
		}
		if uint64(len(recs)) < minCand {
			// core's full-interval fallback
			recs2, busy2, stats2, mem2, err := scan(ctx, store, a.alarm.Interval, nil)
			if err != nil {
				return err
			}
			recs, busy = recs2, busy+busy2
			stats = statsAdd(stats, stats2)
			mem = memSnap{bytes: mem.bytes + mem2.bytes, allocs: mem.allocs + mem2.allocs}
		}
		scanBusy += busy
		scanMem = memSnap{bytes: scanMem.bytes + mem.bytes, allocs: scanMem.allocs + mem.allocs}
		scanStats = statsAdd(scanStats, stats)
		tr.record(span{Parent: parent, Req: parent, Layer: "nfstore", Name: "iter",
			Counts: map[string]float64{"records_scanned": float64(stats.RecordsScanned), "returned": float64(len(recs))}},
			p0, p0.Add(busy))

		b0 := time.Now()
		b := itemset.NewBuilder()
		for i := range recs {
			b.Add(&recs[i])
		}
		ds := b.Dataset()
		buildBusy += time.Since(b0)
		flows += ds.TotalFlows()
		tr.record(span{Parent: parent, Req: parent, Layer: "itemset", Name: "build"}, b0, time.Now())

		res := results[a.id]
		var sets []itemset.Set
		seen := map[string]bool{}
		for _, tun := range res.Tuning {
			for _, name := range miner.Names() {
				m, err := miner.New(name)
				if err != nil {
					return err
				}
				m0, t0 := readMem(), time.Now()
				fs, err := m.MineMaximal(ctx, ds, miner.Options{
					MinSupport: tun.FinalMin,
					ByPackets:  tun.Dimension == nfstore.ByPackets,
					Prefilter:  true,
				})
				d := time.Since(t0)
				if err != nil {
					return err
				}
				mineMS[name] += ms(d)
				mineBytes[name] += float64(readMem().sub(m0).bytes)
				tr.record(span{Parent: parent, Req: parent, Layer: "miner", Name: name}, t0, t0.Add(d))
				if name != miner.DefaultName {
					continue
				}
				for _, f := range fs {
					if k := f.Items.Key(); !seen[k] {
						seen[k] = true
						sets = append(sets, f.Items)
					}
				}
			}
		}
		s0 := time.Now()
		ds.SupportAll(sets, 0)
		supportBusy += time.Since(s0)
		tr.record(span{Parent: parent, Req: parent, Layer: "itemset", Name: "support_all"}, s0, time.Now())
		tr.record(span{ID: parent, Req: parent, Layer: "layer_alone", Name: "alarm"}, p0, time.Now())
	}
	n := float64(len(st.alarms))
	for _, name := range []string{"apriori", "fpgrowth", "fda"} {
		layers["miner."+name+".mine_ms"] = ratio(mineMS[name], n)
		layers["miner."+name+".bytes"] = ratio(mineBytes[name], n)
	}
	layers["itemset.build_ns_per_flow"] = ratio(float64(buildBusy), float64(flows))
	layers["itemset.support_all_ms"] = ratio(ms(supportBusy), n)
	// every record a candidate scan returns goes into the builder
	readPath(layers, scanStats, scanBusy, flows, scanMem)
	return nil
}

// scan materializes one Iter pass — core's candidate-selection call —
// timing the store alone, with its scan counters and allocations.
func scan(ctx context.Context, store nfstore.Engine, iv flow.Interval, f *nffilter.Filter) ([]flow.Record, time.Duration, nfstore.Stats, memSnap, error) {
	st0, m0, t0 := store.Stats(), readMem(), time.Now()
	var recs []flow.Record
	for r, err := range store.Iter(ctx, iv, f) {
		if err != nil {
			return nil, 0, nfstore.Stats{}, memSnap{}, err
		}
		recs = append(recs, *r)
	}
	busy := time.Since(t0)
	return recs, busy, statsDelta(store.Stats(), st0), readMem().sub(m0), nil
}
