package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted samples
// (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	k = max(k, 1)
	return sorted[k-1]
}

// beyond counts the samples of n that rank above the p-th percentile.
func beyond(n int, p float64) int {
	return n - max(int(math.Ceil(p/100*float64(n))), 1)
}

// tailPercentile is the reporting rule for tails: the highest of the
// usual percentiles that still has minBeyond samples beyond it. The
// median is the floor — it is reported whatever the count.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99} {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sortedCopy returns the samples in ascending order, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// mean returns the arithmetic mean (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 — a layer the workload does not
// exercise reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap is the allocation counters at one boundary.
type memSnap struct{ bytes, allocs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{bytes: m.TotalAlloc, allocs: m.Mallocs}
}

// sub returns the allocation delta since an earlier snapshot.
func (m memSnap) sub(earlier memSnap) memSnap {
	return memSnap{bytes: m.bytes - earlier.bytes, allocs: m.allocs - earlier.allocs}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
