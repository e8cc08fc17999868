package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	rootcause "repro"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
	"repro/internal/stream"
)

// The store workloads (extract, query, cluster) share one ~2M-flow
// corpus: 24 five-minute bins × 4 PoPs × 20k background flows over
// wider host and server pools than the evaluation suites, with one
// catalog anomaly in every other bin, rotating through anomalyKinds.
const (
	storeBins        = 24
	storePoPs        = 4
	storeFlowsPerPoP = 20000
	storeHosts       = 20000
	storeServers     = 3000
	traceStart       = 1_300_000_200

	// setupReps is how many times a run sets up its system; setup_s is
	// the median.
	setupReps = 3
	// loadBatch is the AddAll batch size, the size of one ingest write.
	loadBatch = 1 << 16
)

// anomalyKinds is the rotation of catalog anomalies placed in the
// corpus: scans, floods by flows and by packets (udpflood takes the
// full-bin fallback: its few flows fall under the candidate minimum),
// and a legitimate flash crowd.
var anomalyKinds = []string{
	"portscan", "ddos-syn", "dns-amplification", "icmp-flood",
	"netscan", "botnet-scan", "udpflood", "flashcrowd",
}

// placeKinds places one catalog anomaly into each given bin, rotating
// through kinds.
func placeKinds(seed uint64, bins []int, kinds []string) ([]gen.Placement, error) {
	var out []gen.Placement
	for i, bin := range bins {
		name := kinds[i%len(kinds)]
		def, ok := gen.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("scenario %q not in the catalog", name)
		}
		out = append(out, def.Placements(seed+uint64(i), bin)...)
	}
	return out, nil
}

// storeScenario builds the store workloads' scenario for a seed.
func storeScenario(seed uint64) (*gen.Scenario, error) {
	var bins []int
	for b := 1; b < storeBins; b += 2 {
		bins = append(bins, b)
	}
	placements, err := placeKinds(seed, bins, anomalyKinds)
	if err != nil {
		return nil, err
	}
	return &gen.Scenario{
		Background: gen.Background{NumPoPs: storePoPs, FlowsPerBin: storeFlowsPerPoP,
			Hosts: storeHosts, Servers: storeServers},
		Bins: storeBins, StartTime: traceStart, Seed: seed, Placements: placements,
	}, nil
}

// corpus is one generated trace held in memory.
type corpus struct {
	recs   []flow.Record
	truth  *gen.Truth
	genDur time.Duration
}

// generate runs the scenario into memory, timing the generator alone.
// The capture buffer is sized up front (background plus a margin for the
// anomalies) so that append growth does not make the set-up's memory
// peak depend on when the collector happened to double.
func generate(s *gen.Scenario) (*corpus, error) {
	col := stream.NewCollector(nfstore.DefaultBinSeconds)
	background := s.Bins * s.Background.NumPoPs * s.Background.FlowsPerBin
	col.Captured = make([]flow.Record, 0, background+background/8)
	t0 := time.Now()
	truth, err := s.Generate(col)
	if err != nil {
		return nil, err
	}
	return &corpus{recs: col.Captured, truth: truth, genDur: time.Since(t0)}, nil
}

// writeStats is the write path's cost for one load.
type writeStats struct {
	dur       time.Duration
	mem       memSnap
	diskBytes int64
	records   int
}

// load writes recs into store in ingest-sized AddAll batches and
// flushes, timing the write path alone, with a span per call when
// traced.
func load(tr *tracer, store nfstore.Engine, dir string, recs []flow.Record) (writeStats, error) {
	m0 := readMem()
	parent := tr.id()
	t0 := time.Now()
	for lo := 0; lo < len(recs); lo += loadBatch {
		s := time.Now()
		if err := store.AddAll(recs[lo:min(lo+loadBatch, len(recs))]); err != nil {
			return writeStats{}, err
		}
		tr.record(span{Parent: parent, Req: parent, Layer: "nfstore", Name: "add_all"}, s, time.Now())
	}
	s := time.Now()
	if err := store.Flush(); err != nil {
		return writeStats{}, err
	}
	end := time.Now()
	tr.record(span{Parent: parent, Req: parent, Layer: "nfstore", Name: "flush"}, s, end)
	tr.record(span{ID: parent, Req: parent, Layer: "setup", Name: "load",
		Counts: map[string]float64{"records": float64(len(recs))}}, t0, end)
	ws := writeStats{dur: end.Sub(t0), mem: readMem().sub(m0), records: len(recs)}
	var err error
	ws.diskBytes, err = dirBytes(dir)
	return ws, err
}

// storeSys is a set-up store workload: the system under test plus what
// set-up measured.
type storeSys struct {
	sys    *rootcause.System
	c      *corpus
	write  writeStats
	alarms []alarmRef
	stop   func() // shuts down what set-up started besides sys
}

// alarmRef is one filed alarm and the truth entry it was synthesized
// from.
type alarmRef struct {
	id    string
	entry int
	alarm rootcause.Alarm
}

func (s *storeSys) close() {
	s.sys.Close()
	if s.stop != nil {
		s.stop()
	}
}

// repeatSetup runs build setupReps times into fresh directories, keeping
// the last system and closing the others, and records each build's
// wall time in out.setupS.
func repeatSetup(e *env, out *outcome, build func(tr *tracer, dir string, c *corpus) (*storeSys, error), scenario func(uint64) (*gen.Scenario, error)) (*storeSys, error) {
	var kept *storeSys
	for rep := 0; rep < setupReps; rep++ {
		if kept != nil {
			kept.close()
			kept = nil
			debug.FreeOSMemory() // the next corpus should not stack on this one
		}
		s, err := scenario(e.seed)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", rep))
		if rep > 0 {
			if err := os.RemoveAll(filepath.Join(e.dir, fmt.Sprintf("setup-%d", rep-1))); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		c, err := generate(s)
		if err != nil {
			return nil, err
		}
		var tr *tracer
		if rep == setupReps-1 {
			tr = e.tr // the kept system's load is the one traced
		}
		st, err := build(tr, dir, c)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		kept = st
	}
	return kept, nil
}

// dropRecords releases the kept corpus's records once nothing reads them
// any more, so the measured passes run on the system's heap alone.
func (s *storeSys) dropRecords() {
	s.c.recs = nil
	debug.FreeOSMemory()
}

// buildLocal creates a single-directory system over the corpus and
// files one synthesized alarm per truth entry.
func buildLocal(tr *tracer, dir string, c *corpus) (*storeSys, error) {
	sys, err := rootcause.Create(rootcause.Config{StoreDir: dir})
	if err != nil {
		return nil, err
	}
	ws, err := load(tr, sys.Store(), dir, c.recs)
	if err != nil {
		sys.Close()
		return nil, err
	}
	st := &storeSys{sys: sys, c: c, write: ws}
	for i := range c.truth.Entries {
		a := eval.SynthesizeAlarm(&c.truth.Entries[i])
		st.alarms = append(st.alarms, alarmRef{id: sys.FileAlarm(a), entry: i, alarm: a})
	}
	return st, nil
}

// storeLayers fills the set-up layers' metrics: generator and write
// path per record, from the kept (last) set-up repetition.
func storeLayers(layers map[string]float64, st *storeSys) {
	n := float64(st.write.records)
	layers["gen.ns_per_rec"] = ratio(float64(st.c.genDur), n)
	layers["nfstore.write_ns_per_rec"] = ratio(float64(st.write.dur), n)
	layers["nfstore.write_allocs_per_rec"] = ratio(float64(st.write.mem.allocs), n)
	layers["nfstore.disk_bytes_per_rec"] = ratio(float64(st.write.diskBytes), n)
}
