package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	rootcause "repro"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
	"repro/internal/stream"
)

// The live trace: a quiet warm-up long enough for the CUSUM baseline
// (8 one-minute windows), then one catalog anomaly every liveSpacing
// bins. The spacing keeps consecutive anomalies further apart than the
// correlator's default cluster gap (600 s), so each is its own incident
// unless a false alarm on the background bridges the gap.
const (
	liveBinSeconds  = nfstore.DefaultBinSeconds
	liveWarmBins    = 3
	liveSpacing     = 8
	livePoPs        = 4
	liveFlowsPerPoP = 400
	// liveAnomaliesPerSecond sizes the trace to the measured seconds: one
	// spacing of background plus an average anomaly is ~27k records, so
	// at liveRate the replay lasts ~0.9 of --seconds, and 10 s already
	// give 20 anomalies — a median with 10 samples beyond it.
	liveAnomaliesPerSecond = 2
	// liveRate is the open loop's fixed record rate, well below the
	// pipeline's flat-out ingest rate.
	liveRate = 60_000
	// liveLateBound is how far behind schedule a record may be sent
	// before its bin counts as failed.
	liveLateBound = time.Second
)

func liveScenario(seed uint64, anomalies int) (*gen.Scenario, error) {
	bins := make([]int, anomalies)
	for i := range bins {
		bins[i] = liveWarmBins + liveSpacing*i
	}
	placements, err := placeKinds(seed, bins, anomalyKinds)
	if err != nil {
		return nil, err
	}
	bg := gen.DefaultBackground()
	bg.NumPoPs, bg.FlowsPerBin = livePoPs, liveFlowsPerPoP
	return &gen.Scenario{
		Background: bg, Bins: liveWarmBins + liveSpacing*anomalies,
		StartTime: traceStart, Seed: seed, Placements: placements,
	}, nil
}

// liveTrace is the replayed trace as NDJSON lines, the way rcad's
// ingest endpoint receives it.
type liveTrace struct {
	lines  [][]byte
	starts []uint32 // each line's record start, for schedule bookkeeping
	truth  *gen.Truth
}

func buildLiveTrace(seed uint64, anomalies int) (*liveTrace, error) {
	s, err := liveScenario(seed, anomalies)
	if err != nil {
		return nil, err
	}
	col := stream.NewCollector(liveBinSeconds)
	truth, err := s.Generate(col)
	if err != nil {
		return nil, err
	}
	recs := col.Sorted()
	lt := &liveTrace{truth: truth}
	for i := range recs {
		line, err := recs[i].MarshalJSON()
		if err != nil {
			return nil, err
		}
		lt.lines = append(lt.lines, line)
		lt.starts = append(lt.starts, recs[i].Start)
	}
	return lt, nil
}

// replayRun is one open-loop replay's observations.
type replayRun struct {
	events             []rootcause.StreamEvent
	lastDue            map[uint32]time.Time     // per bin: when its last record was due
	binLate            map[uint32]time.Duration // per bin: the worst send lateness
	final              *rootcause.StreamStats   // after the drain
	lateMS             []float64                // per record, 0 when on time
	decode, ingest     time.Duration            // summed over records
	queueMax, backlogM int                      // sampled every 1024 records
}

// replay feeds the trace through Ingest in an open loop: line i is due
// at start + i/liveRate whatever the system's state, and is decoded
// from NDJSON just before it is sent. DrainLive then seals the tail and
// waits out the auto-extractions. Each bin's decode and Ingest calls
// are summed into one span.
func replay(ctx context.Context, sys *rootcause.System, lt *liveTrace, tr *tracer) (*replayRun, error) {
	feed, cancel, err := sys.TailIncidents()
	if err != nil {
		return nil, err
	}
	run := &replayRun{lastDue: map[uint32]time.Time{}, binLate: map[uint32]time.Duration{}}
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		for ev := range feed {
			run.events = append(run.events, ev)
		}
	}()
	// The drain closes the feed on success; cancel closes it otherwise.
	defer func() {
		cancel()
		<-tailDone
	}()

	interval := time.Second / liveRate
	var (
		rec      flow.Record
		binSpan  span
		binStart time.Time
	)
	closeBin := func(end time.Time) {
		if binSpan.Counts != nil {
			tr.record(binSpan, binStart, end)
		}
	}
	t0 := time.Now()
	for i, line := range lt.lines {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > time.Millisecond {
			time.Sleep(d)
		}
		late := time.Since(due)
		bin := lt.starts[i] - lt.starts[i]%liveBinSeconds
		run.lastDue[bin] = due
		run.binLate[bin] = max(run.binLate[bin], late)
		a := time.Now()
		rec = flow.Record{}
		if err := rec.UnmarshalJSON(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", i, err)
		}
		b := time.Now()
		if err := sys.Ingest(ctx, &rec); err != nil {
			return nil, err
		}
		c := time.Now()
		if binSpan.Counts == nil || binSpan.Counts["bin"] != float64(bin) {
			closeBin(a)
			binSpan = span{Layer: "stream", Name: "bin", Counts: map[string]float64{"bin": float64(bin)}}
			binStart = a
		}
		binSpan.Counts["records"]++
		binSpan.Counts["decode_ns"] += float64(b.Sub(a))
		binSpan.Counts["ingest_ns"] += float64(c.Sub(b))
		run.decode += b.Sub(a)
		run.ingest += c.Sub(b)
		run.lateMS = append(run.lateMS, ms(max(late, 0)))
		if i%1024 == 0 {
			st := sys.StreamStats()
			run.queueMax = max(run.queueMax, st.QueueLen)
			run.backlogM = max(run.backlogM, st.WatcherBacklog)
		}
	}
	closeBin(time.Now())
	dctx, dcancel := context.WithTimeout(ctx, 2*time.Minute)
	defer dcancel()
	if err := sys.DrainLive(dctx); err != nil {
		return nil, err
	}
	run.final = sys.StreamStats()
	return run, nil
}

// sinceDue is how long after bin's last record was due t happened.
func (r *replayRun) sinceDue(bin flow.Interval, t time.Time) (time.Duration, bool) {
	due, ok := r.lastDue[bin.Start]
	return t.Sub(due), ok
}

// latencies returns, for each isolated anomaly, the time from when its
// bin's last record was due to the extracted incident covering that bin
// alone — the anomaly's time to diagnosis. Two kinds of incident are not
// samples. False alarms on the background raise incidents whose
// extraction of a quiet bin takes a few milliseconds against the
// anomalies' hundreds; mixing them in would put the median on the gap
// between the two. And an anomaly whose incident merged with a false
// alarm in a neighbouring bin has no fixed amount of work: what its
// extraction mines depends on which neighbours had sealed when the job
// started.
func (r *replayRun) latencies(truth *gen.Truth) []float64 {
	var out []float64
	for _, entry := range truth.Entries {
		due, ok := r.lastDue[entry.Interval.Start]
		if !ok {
			continue
		}
		for _, ev := range r.events {
			if ev.Type == rootcause.StreamEventExtracted && ev.Incident.Incident.Interval == entry.Interval {
				out = append(out, ms(ev.Time.Sub(due)))
				break
			}
		}
	}
	return out
}

// checkLive scores one replay; each replayed bin is one operation. A
// bin fails when one of its records was sent more than liveLateBound
// late or the automation reported an error for it. An anomaly's bin
// also fails unless an extracted incident covers it, and unless its
// true cause ranks in the top maxTruthRank of the incident that covers
// the anomaly's bin alone. The online detectors also raise false alarms
// on the background; one within the correlator's cluster gap merges
// into the anomaly's incident, whose ground truth is then ambiguous. An
// anomaly covered only by merged incidents needs the true cause in the
// top maxTruthRank of none of them; merged counts them.
func checkLive(sys *rootcause.System, lt *liveTrace, run *replayRun) (attempted, failed, merged int, err error) {
	bad := make(map[uint32]bool)
	for bin, late := range run.binLate {
		if late > liveLateBound {
			bad[bin] = true
		}
	}
	for _, ev := range run.events {
		if ev.Type == rootcause.StreamEventError {
			bad[ev.Bin.Start] = true
		}
	}
	for e, entry := range lt.truth.Entries {
		covered, isolated, ranked := false, false, false
		for _, ev := range run.events {
			iv := ev.Incident.Incident.Interval
			if ev.Type != rootcause.StreamEventExtracted || !iv.Overlaps(entry.Interval) {
				continue
			}
			covered = true
			if iv != entry.Interval {
				continue
			}
			isolated = true
			ts, err := eval.ScoreTruth(sys.Store(), iv, ev.Result, lt.truth, eval.DefaultScoreOptions())
			if err != nil {
				return 0, 0, 0, err
			}
			ranked = ranked || ts.Entries[e].Attributed && ts.Entries[e].Rank <= maxTruthRank
		}
		if !isolated {
			merged++
		}
		if !covered || isolated && !ranked {
			fmt.Printf("check: anomaly %d (%s) covered %v isolated %v ranked %v\n", e, entry.Kind, covered, isolated, ranked)
			bad[entry.Interval.Start] = true
		}
	}
	if run.final.Dropped > 0 || run.final.AddErrors > 0 {
		return 0, 0, 0, fmt.Errorf("live: %d records dropped, %d rejected", run.final.Dropped, run.final.AddErrors)
	}
	return len(run.binLate), len(bad), merged, nil
}

// livePass is the ingest→ranked-itemset path, run inside the extract
// workload's traced run: a seeded multi-bin trace, decoded from NDJSON
// and fed through Ingest in an open loop on a live system with
// auto-extraction on. It fills the flow, stream, detector and incident
// layers' metrics and live.seal_to_extracted_p50_ms — each isolated
// anomaly timed from when its bin's last record was due to its
// extracted incident — and returns its checked operations, one per
// replayed bin.
//
// It is not a workload of its own: on two cores the anomalies'
// extractions, whose costs span two orders of magnitude by kind, overlap
// with ingest and with each other, and a median over the 20–30 anomalies
// a run can replay moved by 26–62% between seeds — more than any bound
// the benchmark may set.
func livePass(ctx context.Context, e *env, layers map[string]float64) (attempted, failed int, err error) {
	lt, err := buildLiveTrace(e.seed, liveAnomaliesPerSecond*int(e.seconds/time.Second))
	if err != nil {
		return 0, 0, err
	}
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(e.dir, "live")},
		rootcause.WithLive(rootcause.LiveConfig{}))
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	run, err := replay(ctx, sys, lt, e.tr)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed, merged, err := checkLive(sys, lt, run)
	if err != nil {
		return 0, 0, err
	}
	lat := run.latencies(lt.truth)
	layers["live.seal_to_extracted_p50_ms"] = percentile(sortedCopy(lat), 50)
	layers["incident.merged_anomaly_share"] = ratio(float64(merged), float64(len(lt.truth.Entries)))
	fmt.Printf("live   %d bins, %d anomalies (%d isolated), seal_to_extracted_p50_ms %.4f n=%d\n",
		len(run.binLate), len(lt.truth.Entries), len(lat), layers["live.seal_to_extracted_p50_ms"], len(lat))
	liveLayers(e.tr, layers, sys, lt, run)
	return attempted, failed, nil
}

// liveLayers reduces the replay to the flow, stream, detector and
// incident layers' metrics, recording a span per extracted incident:
// seal→incident, the job's queue wait and run, and the hand-off to the
// feed.
func liveLayers(tr *tracer, layers map[string]float64, sys *rootcause.System, lt *liveTrace, run *replayRun) {
	n := float64(len(lt.lines))
	st := run.final
	layers["flow.decode_ns_per_rec"] = ratio(float64(run.decode), n)
	layers["stream.ingest_ns_per_rec"] = ratio(float64(run.ingest), n)
	layers["stream.queue_len_max"] = float64(run.queueMax)
	layers["stream.watcher_backlog_max"] = float64(run.backlogM)
	layers["stream.sealed_bins"] = float64(st.SealedBins)
	layers["stream.dropped"] = float64(st.Dropped)
	layers["stream.generator_late_ms_p99"] = percentile(sortedCopy(run.lateMS), 99)
	layers["detector.alarms_per_bin"] = ratio(float64(st.Alarms), float64(st.SealedBins))

	var useful float64
	alarms := sys.Alarms(lt.truth.Span)
	for _, a := range alarms {
		for _, entry := range lt.truth.Entries {
			if a.Alarm.Interval.Overlaps(entry.Interval) {
				useful++
				break
			}
		}
	}
	layers["detector.useful_alarm_share"] = ratio(useful, float64(len(alarms)))

	opened := map[string]time.Time{}
	var toIncident []float64
	for _, ev := range run.events {
		if ev.Type != rootcause.StreamEventIncident {
			continue
		}
		if d, ok := run.sinceDue(ev.Bin, ev.Time); ok {
			toIncident = append(toIncident, ms(d))
		}
		opened[ev.IncidentID] = ev.Time
	}
	layers["incident.seal_to_incident_ms"] = mean(toIncident)
	layers["incident.incidents_per_anomaly"] = ratio(float64(len(opened)), float64(len(lt.truth.Entries)))

	for _, ev := range run.events {
		if ev.Type != rootcause.StreamEventExtracted {
			continue
		}
		due, ok := run.lastDue[ev.Bin.Start]
		js, err := sys.Job(ev.JobID)
		if !ok || err != nil || js.StartedAt == nil || js.FinishedAt == nil {
			continue
		}
		req := tr.id()
		tr.record(span{ID: req, Req: req, Layer: "live", Name: "seal_to_extracted"}, due, ev.Time)
		tr.record(span{Parent: req, Req: req, Layer: "live", Name: "seal_to_incident"}, due, opened[ev.IncidentID])
		tr.record(span{Parent: req, Req: req, Layer: "live", Name: "job_queued"}, js.SubmittedAt, *js.StartedAt)
		tr.record(span{Parent: req, Req: req, Layer: "live", Name: "job_run"}, *js.StartedAt, *js.FinishedAt)
		tr.record(span{Parent: req, Req: req, Layer: "live", Name: "job_handoff"}, *js.FinishedAt, ev.Time)
	}
}
