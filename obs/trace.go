package obs

import (
	"sync"
	"time"
)

// Span is one attempt of one transaction at the kv layer: the kv retry
// loop emits a span per attempt of an Update, Batch, GetRev, PutIf or
// DeleteIf, committed or not, and none for Get, Put, Delete, Scan or
// ReadAt. Aborted attempts produce spans too — that is the point: a
// transaction that retried 40 times yields 40 conflict spans with the
// engine that ran them, instead of a printf hunt.
//
// Granularity contract: one span is one attempt of that loop. The engines'
// internal hardware retries (fast-path aborts the engine itself absorbs
// before committing) do not produce spans; they aggregate into the
// engine.* live counters. A span therefore answers "how often did the
// whole body re-execute", the counters answer "what did the hardware do
// underneath".
type Span struct {
	// Engine is the engine that executed the attempt ("RH1 Mixed 100",
	// "TL2", ...).
	Engine string `json:"engine"`
	// Attempt is the zero-based retry count of this attempt within its
	// operation.
	Attempt int `json:"attempt"`
	// Outcome is "commit", "conflict" (the attempt will be retried), or
	// "error" (the body returned a non-conflict error, ending the loop).
	Outcome string `json:"outcome"`
	// Err carries the error text for "error" outcomes.
	Err string `json:"err,omitempty"`
	// CommitRev is the highest revision the attempt's writes were stamped
	// with, 0 for read-only commits, aborted attempts, and backends that
	// do not surface revisions on this path.
	CommitRev uint64 `json:"commit_rev,omitempty"`
	// Wall is the attempt's wall-clock duration — host time, real
	// nanoseconds.
	Wall time.Duration `json:"wall_ns"`
	// VirtualTime is the DB's injected Clock reading when the span was
	// recorded — the time base leases expire on. Wall and VirtualTime are
	// deliberately distinct fields: the machine is simulated and tests
	// drive the virtual clock manually, so neither is derivable from the
	// other.
	VirtualTime uint64 `json:"virtual_time"`
}

// Outcome values of a Span.
const (
	OutcomeCommit   = "commit"
	OutcomeConflict = "conflict"
	OutcomeError    = "error"
)

// Tracer receives per-attempt spans. Implementations must be safe for
// concurrent use; TxnAttempt runs on the caller's hot path, so it should
// be cheap.
type Tracer interface {
	TxnAttempt(Span)
}

// RecordingTracer is a bounded in-memory Tracer for tests and debugging.
//
// Concurrency contract: every method serializes on one internal mutex, so
// TxnAttempt, Spans, and Reset may race freely from any number of
// goroutines. Two consequences callers can rely on: (1) Spans returns a
// fresh copy, never an alias of the live buffer — a slice obtained before a
// concurrent Reset stays intact even though Reset truncates the live buffer
// in place and later TxnAttempts reuse its backing array; (2) a TxnAttempt
// concurrent with Reset lands either entirely before it (discarded) or
// entirely after it (retained against a zeroed bound) — never a torn span.
// The contract is exercised under -race by
// TestRecordingTracerConcurrentReset.
type RecordingTracer struct {
	mu    sync.Mutex
	spans []Span
}

// spanLimit bounds the spans a RecordingTracer retains; spans past it are
// discarded.
const spanLimit = 4096

// NewRecordingTracer creates a tracer retaining at most spanLimit spans.
func NewRecordingTracer() *RecordingTracer { return &RecordingTracer{} }

// TxnAttempt implements Tracer.
func (t *RecordingTracer) TxnAttempt(s Span) {
	t.mu.Lock()
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in arrival order.
func (t *RecordingTracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Reset discards everything recorded so far.
func (t *RecordingTracer) Reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}
