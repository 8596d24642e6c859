package obs

import (
	"sort"
	"sync"
	"time"
)

// Flight is the flight recorder: a bounded ring of sampled traces that
// always retains, per request kind, the K slowest traces, the K most
// recent errors, and the K most recent overall, plus per-stage duration
// histograms for quantile summaries. Retention is by eviction, never by
// blocking — recording is O(K) under one mutex and never touches the
// request's critical path beyond that.
//
// A Flight also owns the awaiting-apply table that links a finished
// trace to the replica apply that later replays its commit revision:
// SetCommitRev registers the trace, ReplicaApplied (called from the repl
// apply loop) annotates and releases every trace at or below the applied
// watermark. A replica can apply a commit before the request's
// SetCommitRev registers it, so the Flight keeps the watermark too, and a
// trace registered at or below it is annotated at once. The table is bounded
// (4×K entries, FIFO eviction) so a replica-less deployment cannot leak
// traces.
type Flight struct {
	mu         sync.Mutex
	kinds      map[string]*flightKind
	awaiting   map[uint64]*Trace
	awaitOrder []uint64
	applied    appliedMark
}

// appliedMark is the highest watermark ReplicaApplied has reported, with
// the replica that reached it and how long that apply took.
type appliedMark struct {
	rev     uint64
	replica string
	dur     time.Duration
}

type flightKind struct {
	count    uint64
	errors   uint64
	slowest  []slowEntry // sorted descending by wall, len <= k
	recent   []*Trace    // newest last, len <= k
	errTrail []*Trace    // newest last, len <= k
	stages   map[string]*Histogram
}

// slowEntry caches the sealed wall time so ordering the slowest list
// never takes a trace's lock under the flight lock.
type slowEntry struct {
	t    *Trace
	wall uint64
}

// flightK is the per-kind retention depth: K traces per bucket.
const flightK = 8

// NewFlight returns a flight recorder retaining flightK traces per bucket
// per request kind.
func NewFlight() *Flight {
	return &Flight{
		kinds:    make(map[string]*flightKind),
		awaiting: make(map[uint64]*Trace),
	}
}

// NewTrace opens a trace for one sampled request of the given kind. The
// id is the wire trace id chosen by the sampling side. A nil Flight
// returns a detached trace that still records stages and renders, but is
// retained nowhere.
func (f *Flight) NewTrace(id uint64, kind string) *Trace {
	return &Trace{fl: f, id: id, kind: kind, begin: time.Now()}
}

func (f *Flight) kindLocked(kind string) *flightKind {
	fk := f.kinds[kind]
	if fk == nil {
		fk = &flightKind{stages: make(map[string]*Histogram)}
		f.kinds[kind] = fk
	}
	return fk
}

// record files a finished trace. Called by Trace.Finish; never called
// with t.mu held.
func (f *Flight) record(t *Trace) {
	snap := t.Snapshot()
	f.mu.Lock()
	defer f.mu.Unlock()
	fk := f.kindLocked(snap.Kind)
	fk.count++
	for _, st := range snap.Stages {
		h := fk.stages[st.Name]
		if h == nil {
			h = &Histogram{}
			fk.stages[st.Name] = h
		}
		h.Observe(uint64(st.Dur))
	}
	fk.recent = appendRing(fk.recent, t)
	if snap.Err != "" {
		fk.errors++
		fk.errTrail = appendRing(fk.errTrail, t)
	}
	// Insert into the slowest-K list (descending by wall time).
	i := sort.Search(len(fk.slowest), func(i int) bool {
		return fk.slowest[i].wall < snap.WallNS
	})
	if i < flightK {
		fk.slowest = append(fk.slowest, slowEntry{})
		copy(fk.slowest[i+1:], fk.slowest[i:])
		fk.slowest[i] = slowEntry{t: t, wall: snap.WallNS}
		if len(fk.slowest) > flightK {
			fk.slowest = fk.slowest[:flightK]
		}
	}
}

func appendRing(ring []*Trace, t *Trace) []*Trace {
	ring = append(ring, t)
	if len(ring) > flightK {
		copy(ring, ring[1:])
		ring = ring[:len(ring)-1]
	}
	return ring
}

// awaitApply registers a trace to be annotated when a replica applies
// rev, or annotates it now if one already has. Bounded: beyond 4×K pending
// entries the oldest is dropped.
func (f *Flight) awaitApply(rev uint64, t *Trace) {
	f.mu.Lock()
	if m := f.applied; rev <= m.rev {
		f.mu.Unlock()
		t.annotate(StageReplicaApply, m.dur, "replica="+m.replica)
		return
	}
	defer f.mu.Unlock()
	if _, dup := f.awaiting[rev]; !dup {
		f.awaitOrder = append(f.awaitOrder, rev)
	}
	f.awaiting[rev] = t
	for len(f.awaitOrder) > 4*flightK {
		old := f.awaitOrder[0]
		f.awaitOrder = f.awaitOrder[1:]
		delete(f.awaiting, old)
	}
}

// ReplicaApplied reports that the named replica's apply loop reached
// watermark maxRev, applying n ops over duration d. Every awaiting trace
// with commit revision <= maxRev gains a replica_apply stage annotated
// with the replica name and is released from the table.
func (f *Flight) ReplicaApplied(replica string, maxRev uint64, n int, d time.Duration) {
	if f == nil || maxRev == 0 {
		return
	}
	var hit []*Trace
	f.mu.Lock()
	if maxRev > f.applied.rev {
		f.applied = appliedMark{rev: maxRev, replica: replica, dur: d}
	}
	kept := f.awaitOrder[:0]
	for _, rev := range f.awaitOrder {
		if rev <= maxRev {
			if t := f.awaiting[rev]; t != nil {
				hit = append(hit, t)
			}
			delete(f.awaiting, rev)
		} else {
			kept = append(kept, rev)
		}
	}
	f.awaitOrder = kept
	f.mu.Unlock()
	// Annotate outside f.mu, as awaitApply does. Lock order is one-way:
	// record/Dump take f.mu alone, Trace methods take t.mu alone — a trace
	// lock is never held while acquiring the flight lock, so annotating
	// here without f.mu keeps the order acyclic.
	for _, t := range hit {
		t.annotate(StageReplicaApply, d, "replica="+replica)
	}
}

// AwaitingApply returns the number of commit revisions still waiting for
// a replica apply (for tests and health reporting).
func (f *Flight) AwaitingApply() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.awaiting)
}

// StageStat summarizes one stage's duration distribution within a kind.
type StageStat struct {
	Count uint64 `json:"count"`
	P50NS uint64 `json:"p50_ns"`
	P95NS uint64 `json:"p95_ns"`
	P99NS uint64 `json:"p99_ns"`
}

// KindDump is one request kind's flight-recorder state.
type KindDump struct {
	Count        uint64               `json:"count"`
	Errors       uint64               `json:"errors"`
	Stages       map[string]StageStat `json:"stages,omitempty"`
	Slowest      []TraceSnapshot      `json:"slowest,omitempty"`
	RecentErrors []TraceSnapshot      `json:"recent_errors,omitempty"`
	Recent       []TraceSnapshot      `json:"recent,omitempty"`
}

// FlightDump is the serializable flight-recorder state served by
// KindTraceDump frames and printed on server close.
type FlightDump struct {
	Kinds map[string]KindDump `json:"kinds"`
}

// Dump captures the recorder. Trace snapshots are taken outside the
// flight lock (same non-nesting argument as ReplicaApplied).
func (f *Flight) Dump() FlightDump {
	out := FlightDump{Kinds: make(map[string]KindDump)}
	if f == nil {
		return out
	}
	type rawKind struct {
		name     string
		count    uint64
		errors   uint64
		stats    map[string]StageStat
		slowest  []slowEntry
		errTrail []*Trace
		recent   []*Trace
	}
	var raws []rawKind
	f.mu.Lock()
	for name, fk := range f.kinds {
		rk := rawKind{
			name:     name,
			count:    fk.count,
			errors:   fk.errors,
			stats:    make(map[string]StageStat, len(fk.stages)),
			slowest:  append([]slowEntry(nil), fk.slowest...),
			errTrail: append([]*Trace(nil), fk.errTrail...),
			recent:   append([]*Trace(nil), fk.recent...),
		}
		for sn, h := range fk.stages {
			hs := h.Snapshot()
			rk.stats[sn] = StageStat{
				Count: hs.Count,
				P50NS: hs.P(0.50),
				P95NS: hs.P(0.95),
				P99NS: hs.P(0.99),
			}
		}
		raws = append(raws, rk)
	}
	f.mu.Unlock()
	for _, rk := range raws {
		kd := KindDump{
			Count:  rk.count,
			Errors: rk.errors,
			Stages: rk.stats,
		}
		for _, e := range rk.slowest {
			kd.Slowest = append(kd.Slowest, e.t.Snapshot())
		}
		for _, t := range rk.errTrail {
			kd.RecentErrors = append(kd.RecentErrors, t.Snapshot())
		}
		for _, t := range rk.recent {
			kd.Recent = append(kd.Recent, t.Snapshot())
		}
		out.Kinds[rk.name] = kd
	}
	return out
}
