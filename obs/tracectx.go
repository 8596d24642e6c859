package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the cross-process half of the tracing surface: a sampling
// decision (Sampler), a per-request trace that collects typed child stages
// and per-attempt spans (Trace), and the sink interfaces the data path
// reports through. The trace id travels in server/wire frame headers
// (FlagTraced + a u64 after the body header), so one sampled client
// operation produces one linked trace spanning client send, server
// dispatch, the cross-connection batch window, engine attempts, WAL group
// commit, 2PC phases, and replica apply.

// Stage names of the trace taxonomy. Every stage a trace records uses one
// of these, so renderings and per-stage aggregates are comparable across
// request kinds and backends (see DESIGN.md §14).
const (
	// StageNet is the client-observed network round trip minus the
	// server's handling time — recorded client-side from the server wall
	// duration echoed on traced responses.
	StageNet = "net"
	// StageQueueWait is time between a frame's arrival at the server and
	// its dispatch (reader handoff, inflight-semaphore wait).
	StageQueueWait = "queue_wait"
	// StageBatchWait is time an op spent parked in the cross-connection
	// batcher before its batch executed.
	StageBatchWait = "batch_wait"
	// StageEngine is the engine-transaction portion of the request: every
	// closure attempt, including retries.
	StageEngine = "engine"
	// StageWALSync is the group-commit wait: from handing the commit's ops
	// to the WAL writer until they are durable (log order = commit order,
	// so this is the full sync barrier, queueing included).
	StageWALSync = "wal_sync"
	// Stage2PCPrepare is the phase-1 sweep of a cross-System commit.
	Stage2PCPrepare = "2pc_prepare"
	// Stage2PCFinish is the phase-2 apply sweep of a cross-System commit.
	Stage2PCFinish = "2pc_finish"
	// StageReplicaApply is recorded when a replica's apply loop replays
	// the trace's commit revision — annotated asynchronously, after the
	// response, via the Flight's awaiting-apply link.
	StageReplicaApply = "replica_apply"
)

// Sampler makes the head-based sampling decision: exactly one request in
// every N is traced, decided by an atomic counter, so a fixed workload
// always samples the same requests (deterministic head-based sampling).
// The nil *Sampler never samples — the disabled path is one predicted
// branch, no atomics, no allocation.
type Sampler struct {
	n   uint64
	ctr atomic.Uint64
}

// NewSampler returns a 1-in-n sampler; n <= 0 disables sampling (nil).
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return nil
	}
	return &Sampler{n: uint64(n)}
}

// Sample reports whether this request is traced. The first request is
// always sampled, then every n-th after it.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return (s.ctr.Add(1)-1)%s.n == 0
}

// Stage is one typed child stage of a Trace: a named interval with its
// start offset from the trace's begin stamp. Start offsets come from the
// host monotonic clock, so stages recorded later have later offsets —
// the invariant renderings and tests lean on.
type Stage struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Note carries a stage-specific annotation (the applying replica,
	// a cause: conflict retries, fenced writes, lost events).
	Note string `json:"note,omitempty"`
}

// TraceSink receives a request's trace events from the data path. *Trace
// implements it; MultiSink broadcasts to several traces (a server batch
// executes ops from many connections in one DB call — each traced op
// gets the shared engine/WAL/2PC stages).
type TraceSink interface {
	// Stage records a completed stage of duration d ending now.
	Stage(name string, d time.Duration)
	// Attempt records one closure-attempt span (the obs.Span contract).
	Attempt(Span)
	// SetCommitRev records the commit revision, linking the trace to the
	// replica apply that will replay it.
	SetCommitRev(rev uint64)
}

// StageRecorder is the narrow stage-only sink lower layers (the cluster's
// 2PC commit path) report through.
type StageRecorder interface {
	Stage(name string, d time.Duration)
}

// Trace is one sampled request: identity, outcome, child stages, and
// per-attempt spans. All methods are safe for concurrent use — a trace
// stays annotatable (replica apply) after it finished and was handed to
// the Flight.
type Trace struct {
	fl *Flight

	mu     sync.Mutex
	id     uint64
	kind   string
	begin  time.Time
	wall   time.Duration
	err    string
	rev    uint64
	stages []Stage
	spans  []Span
	done   bool
}

// ID returns the trace id (chosen by the sampling side, carried on the
// wire).
func (t *Trace) ID() uint64 { return t.id }

// Begin returns the trace's begin stamp (the sampling point).
func (t *Trace) Begin() time.Time { return t.begin }

// Elapsed returns the time since the trace began — the handling duration
// a server echoes on traced responses (FlagTraced), stamped just before
// the response frame is queued.
func (t *Trace) Elapsed() time.Duration { return time.Since(t.begin) }

// Stage implements TraceSink: the stage ends now and lasted d.
func (t *Trace) Stage(name string, d time.Duration) {
	t.StageNote(name, d, "")
}

// StageNote is Stage with an annotation.
func (t *Trace) StageNote(name string, d time.Duration, note string) {
	start := time.Since(t.begin) - d
	if start < 0 {
		start = 0
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Start: start, Dur: d, Note: note})
	t.mu.Unlock()
}

// StageSince records a stage that started at start and ends now.
func (t *Trace) StageSince(name string, start time.Time) {
	t.Stage(name, time.Since(start))
}

// annotate appends a stage stamped at the annotation point itself —
// used for asynchronous events (replica apply) whose duration belongs to
// another timeline, so subtracting it from now would produce an offset
// before the event was even observable.
func (t *Trace) annotate(name string, d time.Duration, note string) {
	start := time.Since(t.begin)
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Start: start, Dur: d, Note: note})
	t.mu.Unlock()
}

// Attempt implements TraceSink.
func (t *Trace) Attempt(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// SetCommitRev implements TraceSink and registers the trace with its
// Flight's awaiting-apply table: when a replica's apply loop replays
// rev, the trace gains a replica_apply stage.
func (t *Trace) SetCommitRev(rev uint64) {
	t.mu.Lock()
	t.rev = rev
	t.mu.Unlock()
	if t.fl != nil && rev != 0 {
		t.fl.awaitApply(rev, t)
	}
}

// Finish seals the trace's wall time and outcome and records it into its
// Flight. Replica-apply annotations may still arrive afterwards.
func (t *Trace) Finish(err error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.wall = time.Since(t.begin)
	if err != nil {
		t.err = err.Error()
	}
	t.mu.Unlock()
	if t.fl != nil {
		t.fl.record(t)
	}
}

// Snapshot copies the trace's current state.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceSnapshot{
		ID:        t.id,
		Kind:      t.kind,
		WallNS:    uint64(t.wall),
		Err:       t.err,
		CommitRev: t.rev,
		Stages:    append([]Stage(nil), t.stages...),
		Spans:     append([]Span(nil), t.spans...),
	}
	return out
}

// MultiSink broadcasts TraceSink events to every member trace. The server
// batcher uses it to attribute one shared DB call to every traced op the
// batch carried.
type MultiSink []*Trace

// Stage implements TraceSink.
func (m MultiSink) Stage(name string, d time.Duration) {
	for _, t := range m {
		t.Stage(name, d)
	}
}

// Attempt implements TraceSink.
func (m MultiSink) Attempt(sp Span) {
	for _, t := range m {
		t.Attempt(sp)
	}
}

// SetCommitRev implements TraceSink.
func (m MultiSink) SetCommitRev(rev uint64) {
	for _, t := range m {
		t.SetCommitRev(rev)
	}
}

// TraceSnapshot is a trace's captured, serializable state — what
// KindTraceDump frames carry and FlightDump embeds.
type TraceSnapshot struct {
	ID        uint64  `json:"id"`
	Kind      string  `json:"kind"`
	WallNS    uint64  `json:"wall_ns"`
	Err       string  `json:"err,omitempty"`
	CommitRev uint64  `json:"commit_rev,omitempty"`
	Stages    []Stage `json:"stages,omitempty"`
	Spans     []Span  `json:"spans,omitempty"`
}
