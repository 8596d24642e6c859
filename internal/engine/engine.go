// Package engine defines the interfaces and shared plumbing every
// transactional-memory engine in this repository implements: the
// user-visible Tx surface, the per-worker Thread abstraction, the panic
// sentinel used to unwind a transaction body on abort, and the statistics
// engines report. The public rhtm package re-exports these types.
//
// It also holds the one copy of every per-attempt mechanism more than one
// engine needs: the hardware-attempt driver and fast-retry loop (hw.go), the
// software attempt loop (sw.go), the software write buffer (writeset.go) and
// the thread registry behind NewThread, Snapshot and Live (registry.go). An
// engine package keeps its protocol's steps and its per-access Load/Store.
package engine

import (
	"errors"
	"fmt"

	"rhtm/internal/memsim"
)

// Tx is the operation surface a transaction body sees. Load and Store do not
// return errors: when the enclosing transaction aborts, the engine unwinds
// the body with a retry panic (see Retry) and re-executes it under its retry
// policy, so container code can be written in a direct style with no error
// plumbing through tree traversals.
type Tx interface {
	// Load reads one simulated word transactionally.
	Load(a memsim.Addr) uint64
	// Store writes one simulated word transactionally.
	Store(a memsim.Addr, v uint64)
	// Unsupported marks the body as containing an operation hardware
	// transactions cannot execute (system call, protected instruction).
	// Hardware paths abort persistently and the engine falls back to a
	// software path; software paths treat it as a no-op.
	Unsupported()
}

// Thread is a per-worker transaction context. A Thread is not safe for
// concurrent use: each goroutine obtains its own from Engine.NewThread.
type Thread interface {
	// Atomic executes fn as a transaction, retrying per the engine's policy
	// until the transaction commits or fn returns a non-nil error. A non-nil
	// error from fn aborts the transaction and is returned as-is.
	Atomic(fn func(tx Tx) error) error
}

// Engine is one transactional-memory implementation over a System.
type Engine interface {
	// Name identifies the engine in harness output ("RH1 Fast", "TL2", ...).
	Name() string
	// NewThread registers a worker and returns its transaction context.
	NewThread() Thread
	// Snapshot returns the accumulated statistics of all threads created so
	// far. It must only be called while no thread is inside Atomic.
	Snapshot() Stats
	// Live returns statistics that are safe to read while transactions are
	// running: each thread publishes a copy of its per-thread counters once
	// per completed Atomic call (Worker.Publish), so Live lags Snapshot by
	// at most the transactions currently in flight and never races their
	// unsynchronized per-thread counters.
	Live() Stats
}

// retrySignal is the panic payload used to unwind a transaction body when
// the underlying attempt aborted. It never escapes Atomic.
type retrySignal struct{}

// Retry unwinds the current transaction body. Only engine implementations
// call it; why the attempt aborted is the hardware's to report
// (htm.Txn.AbortReason after Fini), not the unwinding's.
func Retry() {
	panic(retrySignal{})
}

// RunBody invokes fn(tx), converting a retry panic into aborted=true.
// Engines call it to execute the user body; any other panic propagates
// unchanged.
func RunBody(fn func(tx Tx) error, tx Tx) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(retrySignal); !ok {
				panic(r)
			}
			aborted = true
		}
	}()
	return fn(tx), false
}

// ErrTooManyThreads is returned (via panic from NewThread) when an engine's
// bounded thread-ID space (one read-mask bit per thread) is oversubscribed.
var ErrTooManyThreads = errors.New("engine: thread-ID space exhausted")

// Stats aggregates engine activity. Counters are maintained per Thread
// without synchronization and merged by Snapshot.
type Stats struct {
	// Commits counts committed transactions by path.
	FastCommits     uint64 // pure hardware fast path
	SlowCommits     uint64 // mixed (mostly software) slow path
	SlowSlowCommits uint64 // all-software path
	ReadOnlyCommits uint64 // software commits that skipped the commit phase

	// Aborts counts aborted attempts by path.
	FastAborts uint64
	SlowAborts uint64

	// FastAbortsByReason breaks down hardware fast-path aborts.
	FastAbortsByReason [8]uint64

	// CommitHTMRetries counts retries of the slow-path commit-time hardware
	// transaction (RH1/RH2 specific).
	CommitHTMRetries uint64

	// RH2Fallbacks counts RH1 slow-path commits that fell back to RH2.
	RH2Fallbacks uint64
	// AllSoftwareWritebacks counts RH2 slow-path commits that fell back to
	// the all-software write-back (the slow-slow path trigger).
	AllSoftwareWritebacks uint64

	// UserErrors counts bodies that returned a non-nil error.
	UserErrors uint64

	// Reads/Writes count transactional data operations (all paths).
	Reads  uint64
	Writes uint64
	// MetadataReads/MetadataWrites count accesses to TM metadata (stripe
	// versions, read masks, global counters) — the instrumentation cost the
	// paper's Figures compare. Fast-path metadata traffic is what separates
	// "Standard HyTM" from "RH1 Fast" from "HTM".
	MetadataReads  uint64
	MetadataWrites uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FastCommits += other.FastCommits
	s.SlowCommits += other.SlowCommits
	s.SlowSlowCommits += other.SlowSlowCommits
	s.ReadOnlyCommits += other.ReadOnlyCommits
	s.FastAborts += other.FastAborts
	s.SlowAborts += other.SlowAborts
	for i := range s.FastAbortsByReason {
		s.FastAbortsByReason[i] += other.FastAbortsByReason[i]
	}
	s.CommitHTMRetries += other.CommitHTMRetries
	s.RH2Fallbacks += other.RH2Fallbacks
	s.AllSoftwareWritebacks += other.AllSoftwareWritebacks
	s.UserErrors += other.UserErrors
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.MetadataReads += other.MetadataReads
	s.MetadataWrites += other.MetadataWrites
}

// Commits returns total committed transactions across all paths.
func (s Stats) Commits() uint64 {
	return s.FastCommits + s.SlowCommits + s.SlowSlowCommits + s.ReadOnlyCommits
}

// Aborts returns total aborted attempts across all paths.
func (s Stats) Aborts() uint64 { return s.FastAborts + s.SlowAborts }

// AbortRatio returns aborts per commit (the paper's "Abort Counter" column
// normalizes the same way: attempts/commits).
func (s Stats) AbortRatio() float64 {
	c := s.Commits()
	if c == 0 {
		return 0
	}
	return float64(s.Aborts()) / float64(c)
}

// String summarizes the stats compactly for harness logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"commits=%d (fast=%d slow=%d slowslow=%d ro=%d) aborts=%d (fast=%d slow=%d) rh2fb=%d sw-wb=%d",
		s.Commits(), s.FastCommits, s.SlowCommits, s.SlowSlowCommits, s.ReadOnlyCommits,
		s.Aborts(), s.FastAborts, s.SlowAborts, s.RH2Fallbacks, s.AllSoftwareWritebacks)
}
