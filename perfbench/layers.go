package main

import (
	"context"
	"time"

	rootcause "repro"
	"repro/internal/core"
	"repro/internal/nfstore"
)

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json order. A layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.candidates_ms", "ms"},
	{"core.mine_flows_ms", "ms"},
	{"core.mine_packets_ms", "ms"},
	{"core.supports_ms", "ms"},
	{"core.baseline_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"core.candidates_bytes", "B"},
	{"core.mine_flows_bytes", "B"},
	{"core.mine_packets_bytes", "B"},
	{"core.supports_bytes", "B"},
	{"core.baseline_bytes", "B"},
	{"core.rank_bytes", "B"},
	{"core.candidates_allocs", "count"},
	{"core.mine_flows_allocs", "count"},
	{"core.mine_packets_allocs", "count"},
	{"core.supports_allocs", "count"},
	{"core.baseline_allocs", "count"},
	{"core.rank_allocs", "count"},
	{"core.candidate_flows", "count"},
	{"core.tuning_rounds", "count"},
	{"core.itemsets_merged", "count"},
	{"core.prefiltered_share", "share"},
	{"core.baseline_dropped_share", "share"},
	{"miner.apriori.mine_ms", "ms"},
	{"miner.apriori.bytes", "B"},
	{"miner.fpgrowth.mine_ms", "ms"},
	{"miner.fpgrowth.bytes", "B"},
	{"miner.fda.mine_ms", "ms"},
	{"miner.fda.bytes", "B"},
	{"itemset.build_ns_per_flow", "ns"},
	{"itemset.support_all_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.handoff_ms", "ms"},
	{"nfstore.scan_ns_per_rec", "ns"},
	{"nfstore.scanned_per_returned", "ratio"},
	{"nfstore.blocks_pruned_share", "share"},
	{"nfstore.segments_pruned_share", "share"},
	{"nfstore.query_bytes_per_rec", "B"},
	{"nfstore.query_allocs_per_rec", "count"},
	{"shardstore.hop_ms", "ms"},
	{"shardstore.hop_ns_per_returned_rec", "ns"},
	{"gen.ns_per_rec", "ns"},
	{"nfstore.write_ns_per_rec", "ns"},
	{"nfstore.write_allocs_per_rec", "count"},
	{"nfstore.disk_bytes_per_rec", "B"},
	{"flow.decode_ns_per_rec", "ns"},
	{"stream.ingest_ns_per_rec", "ns"},
	{"stream.queue_len_max", "count"},
	{"stream.watcher_backlog_max", "count"},
	{"stream.sealed_bins", "count"},
	{"stream.dropped", "count"},
	{"stream.generator_late_ms_p99", "ms"},
	{"detector.alarms_per_bin", "count"},
	{"detector.useful_alarm_share", "share"},
	{"incident.seal_to_incident_ms", "ms"},
	{"incident.incidents_per_anomaly", "ratio"},
	{"incident.merged_anomaly_share", "share"},
	{"live.seal_to_extracted_p50_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// phases are the extraction phases in engine order, with the metric
// stem each reports under.
var phases = []struct{ phase, stem string }{
	{core.PhaseCandidates, "candidates"},
	{core.PhaseMineFlows, "mine_flows"},
	{core.PhaseMinePackets, "mine_packets"},
	{core.PhaseSupports, "supports"},
	{core.PhaseBaseline, "baseline"},
	{core.PhaseRank, "rank"},
}

// phaseMark is one phase boundary as the WithProgress observer saw it.
type phaseMark struct {
	phase    string
	at       time.Time
	itemsets int
	mem      memSnap
}

// phaseRec observes one extraction's progress and keeps its phase
// boundaries. withMem also snapshots the allocation counters at each
// boundary — only meaningful when one extraction runs at a time.
type phaseRec struct {
	withMem bool
	marks   []phaseMark
}

func (p *phaseRec) observe(pr rootcause.ExtractionProgress) {
	if n := len(p.marks); n > 0 && p.marks[n-1].phase == pr.Phase {
		return // a sample within the current phase
	}
	m := phaseMark{phase: pr.Phase, at: time.Now(), itemsets: pr.Itemsets}
	if p.withMem {
		m.mem = readMem()
	}
	p.marks = append(p.marks, m)
}

// phaseCost is one phase's share of an extraction.
type phaseCost struct {
	dur time.Duration
	mem memSnap
}

// costs closes the last phase at end and returns each phase's cost.
func (p *phaseRec) costs(end time.Time, endMem memSnap) map[string]phaseCost {
	out := make(map[string]phaseCost, len(p.marks))
	for i, m := range p.marks {
		stop, stopMem := end, endMem
		if i+1 < len(p.marks) {
			stop, stopMem = p.marks[i+1].at, p.marks[i+1].mem
		}
		c := out[m.phase]
		c.dur += stop.Sub(m.at)
		if p.withMem {
			d := stopMem.sub(m.mem)
			c.mem.bytes += d.bytes
			c.mem.allocs += d.allocs
		}
		out[m.phase] = c
	}
	return out
}

// merged returns the itemset count the supports phase started with —
// the flow- and packet-mined itemsets after merging.
func (p *phaseRec) merged() int {
	for _, m := range p.marks {
		if m.phase == core.PhaseSupports {
			return m.itemsets
		}
	}
	return 0
}

// recordPhases adds one span per phase under parent.
func recordPhases(tr *tracer, p *phaseRec, parent, req int64, end time.Time, endMem memSnap) {
	for i, m := range p.marks {
		stop, stopMem := end, endMem
		if i+1 < len(p.marks) {
			stop, stopMem = p.marks[i+1].at, p.marks[i+1].mem
		}
		s := span{Parent: parent, Req: req, Layer: "core", Name: m.phase}
		if p.withMem {
			d := stopMem.sub(m.mem)
			s.Counts = map[string]float64{"bytes": float64(d.bytes), "allocs": float64(d.allocs)}
		}
		tr.record(s, m.at, stop)
	}
}

// attribution extracts each target once, one at a time, observing phase
// boundaries with allocation snapshots — so each phase's time, bytes
// and allocations belong to that extraction alone — and fills the core
// layer's metrics with per-extraction means.
func attribution(ctx context.Context, tr *tracer, layers map[string]float64, targets []string,
	extract func(ctx context.Context, target string, opts ...rootcause.Option) (*rootcause.Result, error)) (map[string]*rootcause.Result, error) {
	results := make(map[string]*rootcause.Result, len(targets))
	sums := make(map[string]float64)
	var n, prefiltered, rounds, candidates, merged, dropped float64
	for _, target := range targets {
		rec := &phaseRec{withMem: true}
		parent := tr.id()
		t0 := time.Now()
		res, err := extract(ctx, target, rootcause.WithProgress(rec.observe))
		end, endMem := time.Now(), readMem()
		if err != nil {
			return nil, err
		}
		results[target] = res
		tr.record(span{ID: parent, Req: parent, Layer: "attribution", Name: "extract"}, t0, end)
		recordPhases(tr, rec, parent, parent, end, endMem)
		for phase, c := range rec.costs(end, endMem) {
			sums[phase+"_ms"] += ms(c.dur)
			sums[phase+"_bytes"] += float64(c.mem.bytes)
			sums[phase+"_allocs"] += float64(c.mem.allocs)
		}
		n++
		if res.Prefiltered {
			prefiltered++
		}
		for _, t := range res.Tuning {
			rounds += float64(t.Rounds)
		}
		candidates += float64(res.CandidateFlows)
		merged += float64(rec.merged())
		dropped += float64(res.BaselineDropped)
	}
	for _, ph := range phases {
		for _, suffix := range []string{"_ms", "_bytes", "_allocs"} {
			layers["core."+ph.stem+suffix] = ratio(sums[ph.phase+suffix], n)
		}
	}
	layers["core.candidate_flows"] = ratio(candidates, n)
	layers["core.tuning_rounds"] = ratio(rounds, n)
	layers["core.itemsets_merged"] = ratio(merged, n)
	layers["core.prefiltered_share"] = ratio(prefiltered, n)
	layers["core.baseline_dropped_share"] = ratio(dropped, merged)
	return results, nil
}

// jobTimes is one job's lifecycle as the caller saw it.
type jobTimes struct {
	queue, run, handoff time.Duration
}

// timesOf splits a finished job's status at its lifecycle stamps;
// delivered is when the caller received the outcome.
func timesOf(st rootcause.JobStatus, delivered time.Time) (jobTimes, bool) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return jobTimes{}, false
	}
	return jobTimes{
		queue:   st.StartedAt.Sub(st.SubmittedAt),
		run:     st.FinishedAt.Sub(*st.StartedAt),
		handoff: delivered.Sub(*st.FinishedAt),
	}, true
}

// jobLayers fills the jobs layer's metrics with means.
func jobLayers(layers map[string]float64, jts []jobTimes) {
	var q, r, h []float64
	for _, jt := range jts {
		q = append(q, ms(jt.queue))
		r = append(r, ms(jt.run))
		h = append(h, ms(jt.handoff))
	}
	layers["jobs.queue_wait_ms"] = mean(q)
	layers["jobs.run_ms"] = mean(r)
	layers["jobs.handoff_ms"] = mean(h)
}

// readPath fills the nfstore read-path metrics from a window's scan
// counters and allocations: busy is the time spent in read calls,
// returned the records handed back to Query callers.
func readPath(layers map[string]float64, st nfstore.Stats, busy time.Duration, returned uint64, mem memSnap) {
	scanned := float64(st.RecordsScanned)
	layers["nfstore.scan_ns_per_rec"] = ratio(float64(busy), scanned)
	layers["nfstore.scanned_per_returned"] = ratio(scanned, float64(returned))
	blocks := float64(st.BlocksPruned + st.BlocksScanned + st.BlocksAggregated)
	layers["nfstore.blocks_pruned_share"] = ratio(float64(st.BlocksPruned), blocks)
	layers["nfstore.segments_pruned_share"] = ratio(float64(st.SegmentsPruned), float64(st.SegmentsConsidered))
	layers["nfstore.query_bytes_per_rec"] = ratio(float64(mem.bytes), scanned)
	layers["nfstore.query_allocs_per_rec"] = ratio(float64(mem.allocs), scanned)
}

// statsDelta subtracts two cumulative scan-counter snapshots.
func statsDelta(after, before nfstore.Stats) nfstore.Stats {
	return nfstore.Stats{
		SegmentsConsidered: after.SegmentsConsidered - before.SegmentsConsidered,
		SegmentsPruned:     after.SegmentsPruned - before.SegmentsPruned,
		SegmentsScanned:    after.SegmentsScanned - before.SegmentsScanned,
		SegmentsAggregated: after.SegmentsAggregated - before.SegmentsAggregated,
		RecordsScanned:     after.RecordsScanned - before.RecordsScanned,
		SidecarsBuilt:      after.SidecarsBuilt - before.SidecarsBuilt,
		BlocksScanned:      after.BlocksScanned - before.BlocksScanned,
		BlocksPruned:       after.BlocksPruned - before.BlocksPruned,
		BlocksAggregated:   after.BlocksAggregated - before.BlocksAggregated,
	}
}

// statsAdd sums two scan-counter deltas.
func statsAdd(a, b nfstore.Stats) nfstore.Stats {
	return nfstore.Stats{
		SegmentsConsidered: a.SegmentsConsidered + b.SegmentsConsidered,
		SegmentsPruned:     a.SegmentsPruned + b.SegmentsPruned,
		SegmentsScanned:    a.SegmentsScanned + b.SegmentsScanned,
		SegmentsAggregated: a.SegmentsAggregated + b.SegmentsAggregated,
		RecordsScanned:     a.RecordsScanned + b.RecordsScanned,
		SidecarsBuilt:      a.SidecarsBuilt + b.SidecarsBuilt,
		BlocksScanned:      a.BlocksScanned + b.BlocksScanned,
		BlocksPruned:       a.BlocksPruned + b.BlocksPruned,
		BlocksAggregated:   a.BlocksAggregated + b.BlocksAggregated,
	}
}
