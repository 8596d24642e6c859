package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// A workload is one load shape over one assembly of the stack. All five are
// closed loops: each caller waits for its reply before sending again.

// op is one generated operation. What rec, rec2 and n mean is the
// workload's business; kind indexes its root span names.
type op struct {
	kind      uint8
	rec, rec2 int
	n         int
}

// caller generates and executes one closed-loop caller's operations. next
// draws from the caller's seeded stream and touches nothing in the program;
// do makes the call and checks its output.
type caller interface {
	next() op
	do(op) error
}

// stack is one assembled, populated instance of the layers a workload runs.
type stack interface {
	// caller returns closed-loop caller i. sampled asks for a caller whose
	// requests carry the program's own trace sampling at 1/1, where the
	// program has any.
	caller(i int, sampled bool) caller
	// ledger snapshots the cumulative counters of every layer's public
	// stats surface. The stack must be quiescent.
	ledger() ledger
	// probe is the cheap subset the counted pass reads around every
	// operation of a one-worker workload: simulated accesses so far, and
	// kv.DB calls passed through the decorator.
	probe() (accesses, kvCalls uint64)
	// settle waits for asynchronous work (replica apply) to drain.
	settle() error
	// check verifies the stack's final state against the oracle.
	check() error
	close()
}

// workload describes one of the benchmark's workloads at full size.
type workload struct {
	name    string
	why     string
	kinds   []string // root span name per op kind
	callers int
	// inproc: one worker calling the program on its own goroutine. Every
	// simulated count then repeats exactly, and counts are attributed per
	// operation kind.
	inproc bool
	// counted is the counted pass's operation count, all callers together;
	// rate bounds one caller's operations per second (recorder capacity).
	counted int
	rate    int
	// segment is the timed pass's window: as short as still holds a few
	// hundred operations, because the finer the windows, the surer some of
	// them are quiet.
	segment time.Duration
	build   func(e *env) (stack, error)
}

// env is what a build gets.
type env struct {
	seed  int64
	scale int // divisor on record and operation counts; 1 in a real run
	tr    *tracer
}

func (e *env) scaled(n int) int {
	if n /= e.scale; n < 1 {
		return 1
	}
	return n
}

// ledger is a flat snapshot of cumulative counters, named by the layer that
// keeps them. Keys under "g." are gauges: a difference keeps the later one.
type ledger map[string]int64

func (after ledger) minus(before ledger) ledger {
	d := ledger{}
	for k, v := range after {
		if !strings.HasPrefix(k, "g.") {
			v -= before[k]
		}
		d[k] = v
	}
	return d
}

// pass drives every caller for dur (timed: recs non-nil) or until each has
// done its share of count operations (counted: cs non-nil).
type pass struct {
	callers []caller
	recs    []*recorder
	cs      *counted
	tr      *tracer
	st      stack
	errs    *firstError
}

// firstError keeps the first operation failure of a run for the report.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) note(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// counted is what a counted pass records: per-operation latency and kind,
// and for one-worker workloads the counter deltas by kind.
type counted struct {
	ops     int
	failed  int
	elapsed time.Duration
	hash    uint64 // of the operation stream, caller by caller
	lat     [][]uint32
	kind    [][]uint8
	kindAcc [8]uint64
	kindKV  [8]uint64
	kindOps [8]uint64
	// mallocs and allocBytes are the whole process's over the recorded
	// operations.
	mallocs, allocBytes uint64
}

// kindP50us is the median latency of the counted pass's operations of one
// kind.
func (c *counted) kindP50us(k int) float64 {
	var l []uint32
	for i := range c.lat {
		for j, kk := range c.kind[i] {
			if int(kk) == k {
				l = append(l, c.lat[i][j])
			}
		}
	}
	slices.Sort(l)
	return float64(percentile(l, 0.5)) / 1e3
}

func (p *pass) timed(dur time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range p.callers {
		var r *recorder
		if p.recs != nil {
			r = p.recs[i]
		}
		wg.Add(1)
		go func(c caller, r *recorder) {
			defer wg.Done()
			for {
				o := c.next()
				t0 := time.Now()
				err := c.do(o)
				t1 := time.Now()
				at := t1.Sub(start)
				if at >= dur {
					return
				}
				if r == nil {
					continue
				}
				if err != nil {
					r.failed++
					p.errs.note(err)
				}
				r.add(t1.Sub(t0), at)
			}
		}(c, r)
	}
	wg.Wait()
}

// count runs n operations split evenly over the callers. With probe set
// (one-worker workloads) it reads the stack's counters around every
// operation.
func (p *pass) count(n int, record, probe bool) {
	per := n / len(p.callers)
	cs := p.cs
	if record {
		cs.ops = per * len(p.callers)
		cs.lat = make([][]uint32, len(p.callers))
		cs.kind = make([][]uint8, len(p.callers))
		for i := range cs.lat {
			cs.lat[i] = make([]uint32, per)
			cs.kind[i] = make([]uint8, per)
		}
	}
	hashes := make([]uint64, len(p.callers))
	failed := make([]int, len(p.callers))
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	if record {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	for i, c := range p.callers {
		wg.Add(1)
		go func(i int, c caller) {
			defer wg.Done()
			h := fnv.New64a()
			var hb [25]byte
			for j := 0; j < per; j++ {
				o := c.next()
				if !record {
					if err := c.do(o); err != nil {
						failed[i]++
						p.errs.note(err)
					}
					continue
				}
				hb[0] = o.kind
				binary.LittleEndian.PutUint64(hb[1:], uint64(o.rec))
				binary.LittleEndian.PutUint64(hb[9:], uint64(o.rec2))
				binary.LittleEndian.PutUint64(hb[17:], uint64(o.n))
				h.Write(hb[:])
				var acc0, kv0 uint64
				if probe {
					acc0, kv0 = p.st.probe()
				}
				sp := p.tr.begin(p.tr.roots+o.kind, uint32(i*per+j+1))
				t0 := time.Now()
				err := c.do(o)
				lat := time.Since(t0)
				p.tr.end(sp)
				if probe {
					acc1, kv1 := p.st.probe()
					cs.kindAcc[o.kind] += acc1 - acc0
					cs.kindKV[o.kind] += kv1 - kv0
					cs.kindOps[o.kind]++
				}
				if err != nil {
					failed[i]++
					p.errs.note(err)
				}
				cs.lat[i][j] = uint32(min(lat, 1<<32-1))
				cs.kind[i][j] = o.kind
			}
			hashes[i] = h.Sum64()
		}(i, c)
	}
	wg.Wait()
	for _, f := range failed {
		cs.failed += f
	}
	if record {
		cs.elapsed = time.Since(start)
		runtime.ReadMemStats(&m1)
		cs.mallocs, cs.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		h := fnv.New64a()
		for _, v := range hashes {
			fmt.Fprintf(h, "%016x", v)
		}
		cs.hash = h.Sum64()
	}
}
