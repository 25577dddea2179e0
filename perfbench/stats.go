package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile for it
// to be reported: a p90 needs at least 100 samples.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, linearly
// interpolated between closest ranks, together with the sample count it
// rests on. Above the median it fails unless at least minTail samples
// lie beyond the percentile, so a tail is never read off a handful of
// samples.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", p)
	}
	if p > 50 && float64(n)*(100-p)/100 < minTail {
		return 0, n, fmt.Errorf("p%g of %d samples leaves fewer than %d beyond it", p, n, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return s[n-1], n, nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), n, nil
}

// median is the 50th percentile of a non-empty sample set.
func median(xs []float64) float64 {
	v, _, err := percentile(xs, 50)
	if err != nil {
		panic(err)
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// heapMark is a snapshot of the Go runtime's cumulative allocation and
// GC counters; the difference of two marks covers the work between them.
type heapMark struct {
	allocs, bytes uint64
	gcs           uint32
	pause         time.Duration
}

func markHeap() heapMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapMark{allocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}

func (a heapMark) since(b heapMark) heapMark {
	return heapMark{allocs: a.allocs - b.allocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs, pause: a.pause - b.pause}
}

func (a heapMark) add(b heapMark) heapMark {
	return heapMark{allocs: a.allocs + b.allocs, bytes: a.bytes + b.bytes, gcs: a.gcs + b.gcs, pause: a.pause + b.pause}
}

// setRuntime records the Go runtime metrics of ops operations.
func (r *report) setRuntime(h heapMark, ops int) {
	n := float64(ops)
	r.set("heap.alloc_mb_per_op", float64(h.bytes)/(1<<20)/n, "MB", ops)
	r.set("heap.allocs_per_op", float64(h.allocs)/n, "count", ops)
	r.set("gc.cycles_per_op", float64(h.gcs)/n, "count", ops)
	r.set("gc.pause_ms_per_op", ms(h.pause)/n, "ms", ops)
}

// opClock accumulates the wall time, process CPU time and, optionally,
// heap counters of timed calls, so output checks between them stay off
// the clock.
type opClock struct {
	heap bool
	wall time.Duration
	cpu  time.Duration
	mem  heapMark
	lat  []float64 // per-call wall time, ms
}

func (c *opClock) time(fn func()) time.Duration {
	var h heapMark
	if c.heap {
		h = markHeap()
	}
	cpu := cpuTime()
	start := time.Now()
	fn()
	w := time.Since(start)
	c.cpu += cpuTime() - cpu
	if c.heap {
		c.mem = c.mem.add(markHeap().since(h))
	}
	c.wall += w
	c.lat = append(c.lat, ms(w))
	return w
}

// setThroughput records ops_per_s, cpu_ms_per_op and peak_rss_mb for
// ops operations timed by c.
func (r *report) setThroughput(c *opClock, ops int) {
	r.set("ops_per_s", float64(ops)/c.wall.Seconds(), "1/s", ops)
	r.set("cpu_ms_per_op", ms(c.cpu)/float64(ops), "ms", ops)
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
}

// setOps records the throughput metrics and op_p50_ms of ops timed one
// by one.
func (r *report) setOps(c *opClock) {
	r.setThroughput(c, len(c.lat))
	r.set("op_p50_ms", median(c.lat), "ms", len(c.lat))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up cannot move it.
const setupReps = 3

// timeSetups runs setup setupReps times and returns the last set-up's
// state for the timed phase; earlier states are handed to discard, off
// the clock. It records setup_s, the median process CPU time (user+sys,
// every thread) of one set-up, and, for the table, setup_wall_s, the
// median wall time. setup_s is CPU time for the reason cpu_ms_per_op is
// registered and wall time is not (manifest.go).
func timeSetups[S any](r *report, setup func() (S, error), discard func(S)) (S, error) {
	var st S
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(st)
		}
		runtime.GC()
		c0, start := cpuTime(), time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, err
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
	}
	r.set("setup_s", median(cpu), "s", len(cpu))
	r.set("setup_wall_s", median(wall), "s", len(wall))
	return st, nil
}
