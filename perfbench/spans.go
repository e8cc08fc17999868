package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public API. Spans of one operation share Req; a
// span's Parent is the span whose call caused it.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req,omitempty"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the tracer's origin
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a cheap no-op, so workloads call it
// unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span; a zero s.ID gets a fresh one. It
// returns the span's ID.
func (t *tracer) record(s span, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	s.Start = int64(start.Sub(t.origin))
	s.End = int64(end.Sub(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime is the reduction of all spans sharing one layer and name.
type layerTime struct {
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes reduces spans to per-"layer.name" totals. A span's self time
// is its duration minus the part of it its children cover (the union of
// their intervals, clipped to the parent), so overlapping children are
// not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		lt := out[s.Layer+"."+s.Name]
		lt.Count++
		lt.TotalNs += dur
		lt.SelfNs += dur - covered(s, kids[s.ID])
		out[s.Layer+"."+s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// summarizeSpans renders the per-"layer.name" reduction as one line
// each: count, total and self time.
func summarizeSpans(spans []span) []string {
	lt := selfTimes(spans)
	names := make([]string, 0, len(lt))
	for name := range lt {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, name := range names {
		t := lt[name]
		out = append(out, fmt.Sprintf("span   %-40s n=%-6d total %12.3f ms  self %12.3f ms",
			name, t.Count, float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6))
	}
	return out
}
