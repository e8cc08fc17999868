package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 50 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it, want >= %d", tc.n, p, beyond(tc.n, p), minBeyond)
		}
	}
	// Nearest rank over 1..100: the p-th percentile is p itself, with
	// 100-p samples beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	sorted := sortedCopy(xs)
	for _, p := range []float64{50, 75, 90, 99} {
		if got := percentile(sorted, p); got != p {
			t.Errorf("percentile(1..100, %g) = %g", p, got)
		}
		if got := beyond(100, p); got != 100-int(p) {
			t.Errorf("beyond(100, %g) = %d", p, got)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.origin.Add(time.Duration(ns)) }
	parent := tr.id()
	tr.record(span{ID: parent, Layer: "jobs", Name: "run"}, at(0), at(100))
	// Overlapping children count once; a child running past the parent
	// is clipped to it.
	tr.record(span{Parent: parent, Layer: "core", Name: "candidates"}, at(10), at(30))
	tr.record(span{Parent: parent, Layer: "core", Name: "mine-flows"}, at(20), at(50))
	tr.record(span{Parent: parent, Layer: "core", Name: "rank"}, at(90), at(130))
	lt := selfTimes(tr.snapshot())
	run := lt["jobs.run"]
	if run.Count != 1 || run.TotalNs != 100 || run.SelfNs != 100-40-10 {
		t.Fatalf("jobs.run = %+v, want total 100, self 50", run)
	}
	if got := lt["core.rank"]; got.SelfNs != 40 {
		t.Errorf("a leaf's self time is its duration: %+v", got)
	}
	var nilTracer *tracer
	if id := nilTracer.record(span{}, at(0), at(1)); id != 0 || nilTracer.snapshot() != nil {
		t.Error("the untraced (nil) tracer must record nothing")
	}
}

func TestWrongAnswerRaisesFailedShare(t *testing.T) {
	web := &queryOp{name: "web", kind: kindQuery}
	udp := &queryOp{name: "udp", kind: kindQuery}
	ref := map[*queryOp]answer{
		web: {flows: 10, packets: 20, sum: 30},
		udp: {flows: 1, packets: 2, sum: 3},
	}
	results := []queryResult{
		{op: web, lat: time.Millisecond, ans: ref[web]},
		{op: udp, lat: time.Millisecond, ans: answer{flows: 1, packets: 2, sum: 4}}, // wrong checksum
		{op: web, lat: time.Millisecond, ans: ref[web]},
	}
	out := &outcome{setupS: []float64{1}}
	out.addQueries(results, time.Second, time.Second, ref)
	if out.attempted != 3 || out.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", out.attempted, out.failed)
	}
	var buf bytes.Buffer
	if err := report(&buf, &env{}, workloads["query"], out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "failed_share") || !strings.Contains(buf.String(), "0.3333") {
		t.Errorf("failed_share line missing or wrong:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("result line %+v, want correct=false attempted=3 failed=1", res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// same workloads and the same metric names, units and order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []metric, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestMixSequence(t *testing.T) {
	m := &mixes{broad: map[byte]*queryOp{}}
	for _, l := range []byte("wuct") {
		m.broad[l] = &queryOp{name: string(l)}
	}
	m.selective = []*queryOp{{name: "s0"}, {name: "s1"}}
	m.itemsets = []*queryOp{{name: "i0"}, {name: "i1"}, {name: "i2"}}
	counts := map[string]int{}
	lap := len(queryPattern)
	for i := 0; i < lap*3; i++ { // 3 laps: 12 itemset slots, 6 selective
		counts[m.sequence(queryPattern, i).name]++
	}
	for name, want := range map[string]int{"w": 6, "u": 6, "c": 6, "t": 6, "s0": 3, "s1": 3, "i0": 4, "i1": 4, "i2": 4} {
		if counts[name] != want {
			t.Errorf("%s ran %d times in 3 laps, want %d", name, counts[name], want)
		}
	}
}
