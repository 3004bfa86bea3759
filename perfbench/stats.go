package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a log-bucketed latency histogram with 0.5% resolution. Buckets
// are atomic so one histogram can take observations from many goroutines
// without allocating; failed operations are counted apart and rank above
// every success (an infinite latency).
type hist struct {
	buckets [histBuckets]atomic.Int64
	failed  atomic.Int64
	sumNS   atomic.Int64
}

const (
	histBuckets = 6000 // covers 1 ns .. ~10^13 ns
	histGrowth  = 1.005
)

var histLogBase = math.Log(histGrowth)

func histIndex(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	i := int(math.Log(float64(d)) / histLogBase)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histValue is the geometric centre of bucket i, in nanoseconds.
func histValue(i int) float64 {
	return math.Pow(histGrowth, float64(i)+0.5)
}

func (h *hist) observe(d time.Duration) {
	h.buckets[histIndex(d)].Add(1)
	h.sumNS.Add(int64(d))
}

func (h *hist) fail() { h.failed.Add(1) }

func (h *hist) add(o *hist) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.failed.Add(o.failed.Load())
	h.sumNS.Add(o.sumNS.Load())
}

// ok is the number of successful observations.
func (h *hist) ok() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantileUS returns the q-quantile in microseconds over successes and
// failures together. A quantile that lands on a failure is infinite and
// reported as math.MaxFloat64, the largest value JSON can carry. An empty
// histogram reports 0.
func (h *hist) quantileUS(q float64) float64 {
	ok := h.ok()
	total := ok + h.failed.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > ok {
		return math.MaxFloat64
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return histValue(i) / 1e3
		}
	}
	return math.MaxFloat64
}

// meanUS is the mean over successful observations, in microseconds.
func (h *hist) meanUS() float64 {
	ok := h.ok()
	if ok == 0 {
		return 0
	}
	return float64(h.sumNS.Load()) / float64(ok) / 1e3
}

// bucketQuantile estimates a quantile from per-bucket counts of an obs
// histogram (upper bounds, +Inf overflow last), interpolating linearly
// inside the covering bucket as Prometheus does.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-1]
}

// procSample is the process-wide resource state at one instant.
type procSample struct {
	cpu      time.Duration // user + system
	maxRSSKB int64
	alloc    uint64 // cumulative heap bytes allocated
	mallocs  uint64
	gcs      uint32
	gcCPU    float64 // cumulative GC CPU seconds
	totalCPU float64 // cumulative CPU seconds the runtime accounts
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ss := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		ss[i].Name = name
	}
	metrics.Read(ss)
	p := procSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcs:      ms.NumGC,
	}
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = ss[1].Value.Float64()
	}
	return p
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fsType names the filesystem holding path, for the box description.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
