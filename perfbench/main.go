// Command perfbench is the repository's end-to-end benchmark: it
// generates a seeded workload in-process, drives it through the public
// rootcause API, checks every answer, and prints each metric by name
// with its unit and sample count. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload extract --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced, records spans around every call into a
// layer, writes them to .bench_build/spans/, and reports the per-layer
// metrics plus the tracing overhead. See perfbench/README.md for the
// workloads and which end-to-end metric each layer metric moves.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workDir is where the benchmark writes stores, spans and scratch files,
// relative to the repository root it runs from.
const workDir = ".bench_build"

// env is one run's parameters.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string  // this run's scratch directory, removed at exit
	tr       *tracer // the traced run's spans; nil when untraced
}

// outcome is what a workload measured, before reduction to metrics.
type outcome struct {
	setupS    []float64 // one entry per set-up repetition, seconds
	latMS     []float64 // per-operation latencies of the untraced pass
	ops       int       // operations completed in the untraced pass
	elapsed   time.Duration
	cpu       time.Duration // process CPU time over the untraced pass
	attempted int
	failed    int
	tracedMS  []float64          // latencies of the traced pass (trace only)
	layers    map[string]float64 // per-layer metrics (trace only)
}

// spec describes one workload.
type spec struct {
	// latName and opsName name the workload's end-to-end metrics in the
	// human-readable lines ("extract" → extract_p50_ms, extract_per_s).
	latName, opsName string
	// tailP is the workload's tail percentile: the highest one with
	// minBeyond samples beyond it at the workload's sizing.
	tailP float64
	run   func(*env) (*outcome, error)
}

var workloads = map[string]spec{
	"extract": {latName: "extract", opsName: "extract", tailP: 75, run: runExtract},
	"query":   {latName: "query", opsName: "query", tailP: 95, run: runQuery},
	"cluster": {latName: "query", opsName: "query", tailP: 95, run: runCluster},
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "extract, query, cluster or live")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run with per-layer metrics")
	commit := fl.String("commit", "none", "source commit, for the run stamp")
	if err := fl.Parse(args); err != nil {
		return err
	}
	sp, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      filepath.Join(workDir, fmt.Sprintf("work-%d", os.Getpid())),
	}
	if e.trace {
		e.tr = newTracer()
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.dir)

	printStamp(stdout, e, *commit)
	out, err := sp.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", e.workload, err)
	}
	if e.tr != nil {
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
		if err := e.tr.write(path); err != nil {
			return err
		}
		for _, line := range summarizeSpans(e.tr.snapshot()) {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintf(stdout, "spans  %s (%d spans)\n", path, len(e.tr.snapshot()))
	}
	return report(stdout, e, sp, out)
}

// printStamp records what ran where: host, CPUs, Go, source and seed.
func printStamp(w io.Writer, e *env, commit string) {
	host, _ := os.Hostname() // best effort: the stamp is informational
	stamp := map[string]any{
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"trace":      e.trace,
	}
	data, _ := json.Marshal(stamp) // a map of plain values always marshals
	fmt.Fprintf(w, "stamp %s\n", data)
}

// sourceDigest hashes the Go sources under root, so runs of a checkout
// that is not a git repository still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not name the code
		}
		if d.IsDir() && (d.Name() == workDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// report reduces the outcome to metrics, prints one human-readable line
// per metric and then the JSON result line.
func report(w io.Writer, e *env, sp spec, out *outcome) error {
	if out.ops == 0 || len(out.latMS) == 0 || out.attempted == 0 {
		return errors.New("no operation completed")
	}
	lat := sortedCopy(out.latMS)
	n := len(lat)
	if p := tailPercentile(n); p != sp.tailP {
		fmt.Fprintf(os.Stderr, "perfbench: %d samples support p%g as the tail, the workload reports p%g\n", n, p, sp.tailP)
	}
	values := map[string]float64{
		"setup_s":       median(out.setupS),
		"op_p50_ms":     percentile(lat, 50),
		"op_tail_ms":    percentile(lat, sp.tailP),
		"ops_per_s":     float64(out.ops) / out.elapsed.Seconds(),
		"cpu_ms_per_op": ms(out.cpu) / float64(out.ops),
		"peak_rss_mb":   peakRSSMB(),
	}
	samples := map[string]int{
		"setup_s": len(out.setupS), "op_p50_ms": n, "op_tail_ms": n,
		"ops_per_s": out.ops, "cpu_ms_per_op": out.ops, "peak_rss_mb": 1,
	}
	named := map[string]string{
		"op_p50_ms":     sp.latName + "_p50_ms",
		"op_tail_ms":    fmt.Sprintf("%s_p%g_ms", sp.latName, sp.tailP),
		"ops_per_s":     sp.opsName + "_per_s",
		"cpu_ms_per_op": "cpu_ms_per_op",
	}
	for _, m := range endToEnd {
		label := m.name
		if alias, ok := named[m.name]; ok && alias != m.name {
			label = alias + " (" + m.name + ")"
		}
		fmt.Fprintf(w, "metric %-40s %14.4f %-5s n=%d\n", label, values[m.name], m.unit, samples[m.name])
	}
	failedShare := float64(out.failed) / float64(out.attempted)
	fmt.Fprintf(w, "metric %-40s %14.4f %-5s n=%d\n", "failed_share", failedShare, "share", out.attempted)

	metrics := make(map[string]any)
	if e.trace {
		layers := out.layers
		if layers == nil {
			layers = map[string]float64{}
		}
		layers["trace.overhead_share"] = ratio(median(out.tracedMS)-median(out.latMS), median(out.latMS))
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer  %-40s %14.4f %s\n", m.name, layers[m.name], m.unit)
			metrics[m.name] = map[string]any{"value": layers[m.name], "unit": m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
		}
	}
	data, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}
