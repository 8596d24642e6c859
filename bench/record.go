package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// recorder keeps one caller's timed-pass samples in arrays allocated before
// the pass starts: each operation's latency, and when it completed.
type recorder struct {
	lat    []uint32 // ns, saturating
	at     []uint32 // completion time, µs since the pass started
	failed int
	full   bool // capacity reached: the pass was mis-sized
}

func newRecorder(capacity int) *recorder {
	return &recorder{lat: make([]uint32, 0, capacity), at: make([]uint32, 0, capacity)}
}

func (r *recorder) add(lat, at time.Duration) {
	if len(r.lat) == cap(r.lat) {
		r.full = true
		return
	}
	if lat > 1<<32-1 {
		lat = 1<<32 - 1
	}
	r.lat = append(r.lat, uint32(lat))
	r.at = append(r.at, uint32(at/time.Microsecond))
}

// timedStats are the quiet-window estimates of one timed pass.
//
// The host these runs share steals whole scheduler slices, so a whole-run
// mean measures the neighbour as much as the program (same binary, 8 runs:
// mean throughput spread 21%). A stolen slice slows the segments it falls
// in and leaves the others alone, so the fast segments are the program:
// throughput is the 90th-percentile segment's, and the median latency is
// taken over the operations of the quiet half of the segments.
type timedStats struct {
	ops         int
	failed      int
	opsPerS     float64 // 90th-percentile segment throughput
	p50us       float64 // median latency over the faster half of the segments
	p99us       float64 // whole-pass 99th percentile
	meanOpsPerS float64
	slowShare   float64 // segments under 0.8 × opsPerS
	medSegOps   int     // operations in the median segment
	quietOps    int     // samples behind p50us
}

func percentile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize merges the callers' recorders into per-segment statistics.
func summarize(recs []*recorder, segments int, seg time.Duration) (timedStats, error) {
	var st timedStats
	bySeg := make([][]uint32, segments)
	segUS := uint32(seg / time.Microsecond)
	for _, r := range recs {
		if r.full {
			return st, fmt.Errorf("sizing: a recorder filled its %d samples; raise the workload's rate estimate", cap(r.lat))
		}
		st.failed += r.failed
		for i, l := range r.lat {
			if s := int(r.at[i] / segUS); s < segments {
				bySeg[s] = append(bySeg[s], l)
			}
		}
	}
	// Segments in order of throughput, slowest first.
	sort.Slice(bySeg, func(i, j int) bool { return len(bySeg[i]) < len(bySeg[j]) })
	st.medSegOps = len(bySeg[segments/2])
	var all, quiet []uint32
	for s, lats := range bySeg {
		st.ops += len(lats)
		all = append(all, lats...)
		if s >= segments/2 {
			quiet = append(quiet, lats...)
		}
	}
	slices.Sort(all)
	slices.Sort(quiet)
	st.p99us = float64(percentile(all, 0.99)) / 1e3
	st.p50us = float64(percentile(quiet, 0.5)) / 1e3
	st.quietOps = len(quiet)
	st.meanOpsPerS = float64(st.ops) / (float64(segments) * seg.Seconds())
	// Of 20 segments, the 3rd fastest.
	st.opsPerS = float64(len(bySeg[(9*segments+9)/10-1])) / seg.Seconds()
	for _, lats := range bySeg {
		if float64(len(lats))/seg.Seconds() < 0.8*st.opsPerS {
			st.slowShare += 1 / float64(segments)
		}
	}
	return st, nil
}

// hostSample is the process and host state read around the timed pass.
type hostSample struct {
	mem          runtime.MemStats
	cpu          time.Duration // process user+system time
	steal, total uint64        // /proc/stat cpu ticks; zero when unreadable
}

func sampleHost() hostSample {
	var h hostSample
	runtime.ReadMemStats(&h.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
		for i := 1; i < len(f) && i <= 8; i++ {
			v, _ := strconv.ParseUint(f[i], 10, 64)
			h.total += v
			if i == 8 {
				h.steal = v
			}
		}
	}
	return h
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the first cycle's finalizers and sweeps settle in the second
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
