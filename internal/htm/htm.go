// Package htm simulates best-effort hardware transactions on top of the
// memsim coherence model.
//
// A Txn provides the programming surface of an RTM-style hardware
// transaction: Begin, speculative Read/Write, Commit, explicit Abort, and an
// abort reason usable for fallback decisions. Like real best-effort HTM it
// guarantees nothing: any transaction can abort at any point due to
// conflicts (detected at cache-line granularity by memsim), capacity
// overflow (configurable read/write footprint limits modelling the L1), or
// an unsupported instruction (Unsupported, modelling syscalls and protected
// instructions that abort real hardware transactions).
//
// Fidelity notes:
//
//   - Speculative writes are invisible until Commit publishes the entire
//     write set atomically (memsim.CommitTxn locks the whole footprint), so
//     other hardware transactions observe all-or-nothing — the property RH1's
//     uninstrumented fast-path reads rely on.
//   - Conflicts are eager: declaring a write invalidates other monitors of
//     the line immediately (requester-wins by default), like the coherence
//     request a real store issues.
//   - Plain (non-transactional) stores abort conflicting transactions via
//     memsim; this simulator adds no extra machinery for that because all
//     memory traffic flows through the same Memory.
//   - A line is registered with memsim once per attempt, at the first access
//     (memsim.SpecLoad or SpecDeclareWrite, under the line's lock stripe).
//     Later reads of the line are cache hits: memsim.SpecReload, an atomic
//     load and a check that the transaction is still running, with no lock.
//   - Commit hands memsim the footprint as collected; memsim.CommitTxn owns
//     the lock order.
//
// Txn values are not safe for concurrent use by multiple goroutines; each
// worker owns one and reuses it across attempts (Begin resets it).
package htm

import (
	"sync/atomic"

	"rhtm/internal/memsim"
)

// Config bounds a transaction's speculative footprint, in lines.
type Config struct {
	// MaxFootprintLines caps the total number of distinct lines a
	// transaction may touch (read or write) before aborting with
	// AbortCapacity. Models the read-tracking capacity (L1/L2 in TSX).
	MaxFootprintLines int
	// MaxWriteLines caps the distinct written lines (the L1 write buffer in
	// TSX, which is the binding constraint on real hardware).
	MaxWriteLines int
}

// DefaultConfig models a 32 KiB, 64-byte-line L1 for writes (512 lines) with
// a 4x larger read-tracking structure.
func DefaultConfig() Config {
	return Config{MaxFootprintLines: 2048, MaxWriteLines: 512}
}

// Transaction states. Idle is the parked state between attempts; only
// Running transactions can be aborted by remote agents.
const (
	stateIdle uint32 = iota
	stateRunning
	stateAborted
	stateCommitted
)

const (
	flagReader uint8 = 1 << iota
	flagWriter
)

// Txn is one reusable simulated hardware-transaction context.
type Txn struct {
	mem *memsim.Memory
	cfg Config

	state  atomic.Uint32
	reason atomic.Uint32

	lineFlags  map[uint64]uint8
	footprint  []uint64 // every registered line; CommitTxn sorts it
	writeLines int

	writes   []memsim.WriteEntry
	writeIdx map[memsim.Addr]int
}

// NewTxn creates a parked transaction context on mem.
func NewTxn(mem *memsim.Memory, cfg Config) *Txn {
	if cfg.MaxFootprintLines <= 0 || cfg.MaxWriteLines <= 0 {
		panic("htm: footprint limits must be positive")
	}
	return &Txn{
		mem:       mem,
		cfg:       cfg,
		lineFlags: make(map[uint64]uint8, 64),
		writeIdx:  make(map[memsim.Addr]int, 32),
	}
}

// --- memsim.Handle / memsim.CommitterHandle ---

// TryAbort implements memsim.Handle. It is called by remote agents under
// memsim line locks; it must only transition Running transactions.
func (t *Txn) TryAbort(r memsim.AbortReason) bool {
	if t.state.CompareAndSwap(stateRunning, stateAborted) {
		t.reason.Store(uint32(r))
		return true
	}
	return false
}

// Running implements memsim.Handle.
func (t *Txn) Running() bool { return t.state.Load() == stateRunning }

// TryCommit implements memsim.CommitterHandle; memsim calls it at the
// linearization point inside CommitTxn.
func (t *Txn) TryCommit() bool {
	return t.state.CompareAndSwap(stateRunning, stateCommitted)
}

// --- transaction lifecycle ---

// Begin starts a fresh speculative attempt. The previous attempt, if any,
// must have ended: Commit, Abort, or a failed operation. An attempt a remote
// agent aborted is still registered on its lines until it is parked — Abort
// is a no-op on it — so Begin parks it before it drops the footprint;
// otherwise the old monitors would outlive the reset and look live again the
// moment the state returns to running. Fini parks earlier, it is not needed
// for correctness.
func (t *Txn) Begin() {
	if t.state.Load() == stateRunning {
		panic("htm: Begin while running")
	}
	t.finishAbort()
	t.resetBuffers()
	t.reason.Store(uint32(memsim.AbortNone))
	t.state.Store(stateRunning)
}

func (t *Txn) resetBuffers() {
	clear(t.lineFlags)
	t.footprint = t.footprint[:0]
	t.writes = t.writes[:0]
	clear(t.writeIdx)
	t.writeLines = 0
}

// Read performs a speculative load. ok is false if the transaction is
// (or became) aborted; the caller must then stop and call Fini.
func (t *Txn) Read(a memsim.Addr) (v uint64, ok bool) {
	if t.state.Load() != stateRunning {
		return 0, false
	}
	if len(t.writes) > 0 {
		if i, hit := t.writeIdx[a]; hit {
			return t.writes[i].Val, true
		}
	}
	lid := t.mem.LineOf(a)
	if _, seen := t.lineFlags[lid]; seen {
		// Already monitored, as reader or writer: no lock, no registration.
		return t.mem.SpecReload(a, t)
	}
	if len(t.footprint) >= t.cfg.MaxFootprintLines {
		t.selfAbort(memsim.AbortCapacity)
		return 0, false
	}
	v, ok = t.mem.SpecLoad(a, t)
	if !ok {
		return 0, false
	}
	t.lineFlags[lid] = flagReader
	t.footprint = append(t.footprint, lid)
	return v, true
}

// Write performs a speculative store (buffered until Commit). ok is false if
// the transaction is (or became) aborted.
func (t *Txn) Write(a memsim.Addr, v uint64) (ok bool) {
	if t.state.Load() != stateRunning {
		return false
	}
	lid := t.mem.LineOf(a)
	flags, seen := t.lineFlags[lid]
	if flags&flagWriter == 0 {
		if t.writeLines >= t.cfg.MaxWriteLines ||
			(!seen && len(t.footprint) >= t.cfg.MaxFootprintLines) {
			t.selfAbort(memsim.AbortCapacity)
			return false
		}
		if !t.mem.SpecDeclareWrite(a, t) {
			return false
		}
		t.lineFlags[lid] = flags | flagWriter
		if !seen {
			t.footprint = append(t.footprint, lid)
		}
		t.writeLines++
	}
	if i, hit := t.writeIdx[a]; hit {
		t.writes[i].Val = v
		return true
	}
	t.writes = append(t.writes, memsim.WriteEntry{Addr: a, Val: v})
	t.writeIdx[a] = len(t.writes) - 1
	return true
}

// Wrote reports whether the current attempt holds a buffered store to a.
// Begin empties the buffer, so the answer never outlives the attempt.
func (t *Txn) Wrote(a memsim.Addr) bool {
	if len(t.writes) == 0 {
		return false
	}
	_, hit := t.writeIdx[a]
	return hit
}

// Unsupported models executing an instruction hardware transactions cannot
// run (system call, page fault, protected instruction): the transaction
// aborts with the persistent AbortUnsupported reason.
func (t *Txn) Unsupported() {
	if t.state.Load() == stateRunning {
		t.selfAbort(memsim.AbortUnsupported)
	}
}

// Abort explicitly aborts the transaction with the given reason (the
// XABORT analogue). Safe to call when already aborted.
func (t *Txn) Abort(r memsim.AbortReason) {
	if t.state.Load() == stateRunning {
		t.selfAbort(r)
	}
}

// Commit attempts to atomically publish the write set. On success it returns
// true and the transaction is finished. On failure it returns false;
// AbortReason reports why. Either way the transaction is parked and ready
// for Begin.
func (t *Txn) Commit() bool {
	if t.state.Load() != stateRunning {
		t.finishAbort()
		return false
	}
	if t.mem.CommitTxn(t, t.footprint, t.writes) {
		t.state.Store(stateIdle)
		return true
	}
	t.finishAbort()
	return false
}

// Fini parks an aborted transaction: it unregisters any remaining monitor
// entries. Callers invoke it after an operation
// returned ok=false. Idempotent; calling it on an idle Txn is a no-op.
func (t *Txn) Fini() {
	if t.state.Load() == stateAborted {
		t.finishAbort()
	}
}

// selfAbort aborts the transaction from its own goroutine and cleans up.
func (t *Txn) selfAbort(r memsim.AbortReason) {
	t.TryAbort(r)
	t.finishAbort()
}

// finishAbort unregisters from all monitored lines and parks the Txn.
// The handle must not remain registered anywhere once the state leaves
// stateAborted, because the Txn will be reused for the next attempt.
func (t *Txn) finishAbort() {
	if t.state.Load() != stateAborted {
		return
	}
	t.mem.Unregister(t, t.footprint)
	t.state.Store(stateIdle)
}

// AbortReason returns the reason of the most recent abort (AbortNone if the
// last attempt committed).
func (t *Txn) AbortReason() memsim.AbortReason {
	return memsim.AbortReason(t.reason.Load())
}

// WriteSetLines returns the number of distinct lines written by the current
// attempt.
func (t *Txn) WriteSetLines() int { return t.writeLines }
