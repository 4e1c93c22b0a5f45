package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Percentiles are given in per-mille so the nearest rank is exact integer
// arithmetic: p50 is 500, p99 990, p99.9 999.
const (
	p50  = 500
	p99  = 990
	p999 = 999
)

// percentile returns the nearest-rank percentile of sorted samples: the
// smallest sample with at least ⌈perMille·n/1000⌉ samples at or below it.
// Zero samples yield 0.
func percentile(sorted []int64, perMille int) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (perMille*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedCopy returns the samples in ascending order, leaving the input as is.
func sortedCopy(samples []int64) []int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median is the middle of the values (the mean of the two middle ones for an
// even count); 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Runtime metrics read around every timed region. None of them stops the
// world, so reading them costs the measured program nothing.
const (
	rtAllocs    = "/gc/heap/allocs:objects"
	rtHeap      = "/memory/classes/heap/objects:bytes"
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rtMutexWait = "/sync/mutex/wait/total:seconds"
	rtSched     = "/sched/latencies:seconds"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: rtAllocs}, {Name: rtHeap}, {Name: rtGCCycles}, {Name: rtGCCPU},
		{Name: rtTotalCPU}, {Name: rtMutexWait}, {Name: rtSched},
	}
	metrics.Read(s)
	return s
}

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: rtHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampleEvery is the peak-heap sampling period.
const heapSampleEvery = 5 * time.Millisecond

// window measures one timed region of the process: wall time, CPU from
// getrusage, and the runtime's allocation, GC, scheduler and mutex
// accounting, plus the heap's peak sampled every heapSampleEvery.
type window struct {
	start time.Time
	ru    syscall.Rusage
	rt    []metrics.Sample
	heap0 uint64

	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // written by the sampler goroutine, read after wg.Wait
}

// windowStats is what a closed window measured.
type windowStats struct {
	wall      time.Duration
	user, sys time.Duration
	allocs    uint64
	heapPeak  uint64 // bytes above the heap at the window's start
	gcCycles  uint64
	gcCPU     float64 // seconds, the runtime's estimate
	totalCPU  float64 // seconds, the runtime's estimate
	mutexWait float64 // seconds
	sched     schedDelta
}

// openWindow collects garbage first, so every window starts from the same
// heap and no earlier region's debt lands in it, then starts measuring.
func openWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{})}
	w.heap0 = heapBytes()
	w.peak = w.heap0
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if h := heapBytes(); h > w.peak {
					w.peak = h
				}
			}
		}
	}()
	w.rt = readRuntime()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru) // cannot fail for RUSAGE_SELF
	w.start = time.Now()
	return w
}

// close ends the window and returns its measurements.
func (w *window) close() windowStats {
	wall := time.Since(w.start)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rt := readRuntime()
	close(w.stop)
	w.wg.Wait()
	if h := heapBytes(); h > w.peak {
		w.peak = h
	}
	st := windowStats{
		wall:      wall,
		user:      tvDur(ru.Utime) - tvDur(w.ru.Utime),
		sys:       tvDur(ru.Stime) - tvDur(w.ru.Stime),
		allocs:    rt[0].Value.Uint64() - w.rt[0].Value.Uint64(),
		gcCycles:  rt[2].Value.Uint64() - w.rt[2].Value.Uint64(),
		gcCPU:     rt[3].Value.Float64() - w.rt[3].Value.Float64(),
		totalCPU:  rt[4].Value.Float64() - w.rt[4].Value.Float64(),
		mutexWait: rt[5].Value.Float64() - w.rt[5].Value.Float64(),
		sched:     newSchedDelta(w.rt[6].Value.Float64Histogram(), rt[6].Value.Float64Histogram()),
	}
	if w.peak > w.heap0 {
		st.heapPeak = w.peak - w.heap0
	}
	return st
}

func (s windowStats) cpu() time.Duration { return s.user + s.sys }

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// schedDelta is the runtime's scheduler-latency histogram restricted to one
// window: how long goroutines sat runnable before they ran.
type schedDelta struct {
	counts  []uint64
	buckets []float64 // len(counts)+1 boundaries, seconds
}

func newSchedDelta(before, after *metrics.Float64Histogram) schedDelta {
	d := schedDelta{counts: make([]uint64, len(after.Counts)), buckets: after.Buckets}
	for i := range after.Counts {
		d.counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// bounds clamps a bucket's boundaries to finite values: the runtime's first
// and last buckets are open-ended.
func (d schedDelta) bounds(i int) (lo, hi float64) {
	lo, hi = d.buckets[i], d.buckets[i+1]
	if math.IsInf(lo, -1) {
		lo = 0
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	return lo, hi
}

// meanSeconds estimates the mean latency from bucket midpoints.
func (d schedDelta) meanSeconds() float64 {
	var n uint64
	var sum float64
	for i, c := range d.counts {
		lo, hi := d.bounds(i)
		sum += float64(c) * (lo + hi) / 2
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// quantileSeconds estimates a quantile by linear interpolation inside the
// bucket that holds its rank. The runtime's buckets are narrow (a few per
// power of two), so the estimate is close; it is reported as a layer
// metric only, never gated on.
func (d schedDelta) quantileSeconds(perMille int) float64 {
	var n uint64
	for _, c := range d.counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := float64(n) * float64(perMille) / 1000
	var seen float64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := d.bounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := d.bounds(len(d.counts) - 1)
	return lo
}
