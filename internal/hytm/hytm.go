// Package hytm provides the two hardware baselines of the paper's
// evaluation:
//
//   - PureHTM — uninstrumented hardware transactions, retried on transient
//     aborts. "This represents the best performance that HTM can achieve"
//     (§3.2). It has no software fallback: bodies that cannot run in
//     hardware (capacity, unsupported instructions) fail with
//     ErrHardwareOnly after a retry budget.
//
//   - StandardHyTM — the classic hybrid design the paper argues against:
//     the hardware fast path instruments *every* read and write with a
//     stripe-metadata access and a conditional branch, coordinating with a
//     TL2-style software slow path over the same metadata. Unlike the
//     paper's emulation (which used a fake "if" on metadata), this is a
//     fully functional hybrid: the metadata check is the real lock test the
//     coordination requires, so the instrumentation cost is identical and
//     the engine is correct under concurrent software transactions.
//
// Both own only what differs from the other hybrids: PureHTM its give-up
// rule, StandardHyTM its clock-sample prologue and its instrumented
// Load/Store. Attempts, retries and the registry are internal/engine's; the
// slow path is an embedded tl2 engine.
package hytm

import (
	"errors"
	"math/rand"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

// ErrHardwareOnly is returned by PureHTM when a transaction persistently
// cannot execute in hardware.
var ErrHardwareOnly = errors.New("hytm: transaction cannot run as a pure hardware transaction")

// maxPersistentRetries bounds consecutive persistent hardware failures
// before PureHTM gives up with ErrHardwareOnly.
const maxPersistentRetries = 3

// --- PureHTM ---

// PureHTM is the uninstrumented hardware-only engine.
type PureHTM struct {
	engine.Registry
	opts Options
}

// Options configures the hardware engines.
type Options struct {
	// InjectAbortPercent forces this percentage of hardware commits to
	// abort (the paper's §3.1 emulation methodology). 0 disables.
	InjectAbortPercent int
	// Mixed switches StandardHyTM to take the software slow path after
	// maxFastAttempts transient aborts; when false (the paper's benchmark
	// configuration) the hardware path retries indefinitely.
	Mixed bool
}

// maxFastAttempts bounds StandardHyTM's hardware attempts in Mixed mode.
const maxFastAttempts = 8

// NewPureHTM creates the uninstrumented hardware engine on s.
func NewPureHTM(s *sys.System, opts Options) *PureHTM {
	return &PureHTM{Registry: engine.Registry{Sys: s}, opts: opts}
}

// Name implements engine.Engine.
func (e *PureHTM) Name() string { return "HTM" }

// NewThread implements engine.Engine.
func (e *PureHTM) NewThread() engine.Thread {
	t := &pureThread{}
	id := e.RegisterHW(&t.HWWorker, e.opts.InjectAbortPercent)
	t.Rng = rand.New(rand.NewSource(int64(id)*48271 + 7))
	return t
}

type pureThread struct {
	engine.HWWorker
	persistent int // persistent failures of the current Atomic call
}

// Atomic implements engine.Thread.
func (t *pureThread) Atomic(fn func(tx engine.Tx) error) error {
	defer t.Publish()
	t.persistent = 0
	return t.Run(fn, t)
}

// TryFast implements engine.FastPath.
func (t *pureThread) TryFast(fn func(tx engine.Tx) error) (bool, error, memsim.AbortReason) {
	return t.Attempt(fn, pureTx{(*engine.RawTx)(&t.HWWorker)}, &t.Stats.FastCommits)
}

// GoSlow implements engine.FastPath: transient aborts retry forever, the
// third persistent failure ends the transaction.
func (t *pureThread) GoSlow(_ int, reason memsim.AbortReason) bool {
	if reason.Persistent() {
		t.persistent++
	}
	return t.persistent >= maxPersistentRetries
}

// RunSlow implements engine.FastPath: there is no software path.
func (t *pureThread) RunSlow(func(tx engine.Tx) error) error { return ErrHardwareOnly }

// pureTx is a pure hardware attempt: the raw hardware Tx, with no
// instrumentation.
type pureTx struct{ *engine.RawTx }

// Prologue implements engine.HWPath: nothing to subscribe to.
func (pureTx) Prologue() bool { return true }
