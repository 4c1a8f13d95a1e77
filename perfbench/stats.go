package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is the percentile guard: a percentile is reported only when at
// least this many samples lie above it, otherwise it is missing.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether it
// passes the guard. A guarded percentile must be reported as missing.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := max(int(math.Ceil(p/100*float64(n)))-1, 0)
	return s[k], n-1-k >= minBeyond
}

// median is the unguarded middle value, for the handful of repeated
// set-up timings a run takes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one cumulative uint64 runtime metric without stopping
// the world.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative number of bytes the program has allocated.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapPeak samples the live-and-unswept heap every few milliseconds and
// keeps the largest value seen since the last Take.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func heapObjects() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.note()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.note()
			}
		}
	}()
	return h
}

func (h *heapPeak) note() {
	v := heapObjects()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Take returns the peak since the previous Take, in MB, and starts the
// next interval.
func (h *heapPeak) Take() float64 {
	now := heapObjects()
	return float64(max(h.peak.Swap(now), now)) / (1 << 20)
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapPeak) Stop() {
	close(h.stop)
	<-h.done
}

// sliceStats holds the equal stretches of a measured window; a run reports
// the median over them, which a burst of load from outside the run moves
// less than a whole-window mean.
type sliceStats struct {
	rate, cpuPerOp, allocPerOp, peakMB []float64
}

// add records one slice of ops operations over wall seconds.
func (s *sliceStats) add(ops, wall, cpu float64, alloc uint64, peakMB float64) {
	if ops <= 0 {
		return
	}
	s.rate = append(s.rate, ops/wall)
	s.cpuPerOp = append(s.cpuPerOp, cpu/ops)
	s.allocPerOp = append(s.allocPerOp, float64(alloc)/ops)
	s.peakMB = append(s.peakMB, peakMB)
}

// minSlices keeps the medians within the percentile guard.
const minSlices = 2*minBeyond + 1

// report sets the end-to-end metrics from the slices' medians.
func (s *sliceStats) report(o *outcome) {
	o.setPct("ops_per_s", s.rate, 50, 1)
	o.setPct("cpu_us_per_op", s.cpuPerOp, 50, 1e6)
	o.setPct("alloc_kb_per_op", s.allocPerOp, 50, 1.0/1024)
	o.setPct("peak_heap_mb", s.peakMB, 50, 1)
	o.details["slices"] = len(s.rate)
}

// usage brackets a measured stretch: wall time, CPU time and allocation.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func mark() usage { return usage{wall: time.Now(), cpu: cpuTime(), alloc: allocBytes()} }

// since returns wall seconds, CPU seconds and allocated bytes since u.
func (u usage) since() (wall, cpu float64, alloc uint64) {
	return time.Since(u.wall).Seconds(), (cpuTime() - u.cpu).Seconds(), allocBytes() - u.alloc
}
