package engine

import (
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
)

// HWWorker is a Worker with a hardware path: it owns the one hardware-
// attempt driver (Attempt) and the one fast-retry loop (Run) of the
// repository. Engines embed it and supply an HWPath and a FastPath.
type HWWorker struct {
	Worker
	Txn *htm.Txn
	// InjectPct forces this percentage of attempts that reach their commit
	// to abort instead, reproducing the paper's §3.1 emulation methodology
	// of imposing a measured abort ratio. 0 disables.
	InjectPct int
	// MaxFastAttempts is GoSlow's budget of hardware attempts for a
	// transient failure. 0 means no budget.
	MaxFastAttempts int
}

// RawTx is the uninstrumented hardware Tx: each access is counted and made
// speculatively on the worker's Txn, and one that fails retries the attempt.
// Pure HTM and Phased TM's hardware phase run their bodies on it, each
// adding only its Prologue; it has nothing to do before the commit.
type RawTx HWWorker

// Load implements Tx: a raw speculative read.
func (tx *RawTx) Load(a memsim.Addr) uint64 {
	tx.Stats.Reads++
	v, ok := tx.Txn.Read(a)
	if !ok {
		Retry()
	}
	return v
}

// Store implements Tx: a raw speculative write.
func (tx *RawTx) Store(a memsim.Addr, v uint64) {
	tx.Stats.Writes++
	if !tx.Txn.Write(a, v) {
		Retry()
	}
}

// Unsupported implements Tx: hardware cannot execute it.
func (tx *RawTx) Unsupported() {
	tx.Txn.Unsupported()
	Retry()
}

// PreCommit implements HWPath: nothing to do.
func (tx *RawTx) PreCommit() bool { return true }

// HWPath is what an engine supplies to a hardware attempt: the Tx its body
// runs on and the two steps that differ between protocols. Both steps run
// inside the hardware transaction and return false when the attempt cannot
// go on — a speculative access failed, or the step aborted the transaction
// itself (Txn.Abort) because of what it read.
type HWPath interface {
	Tx
	// Prologue runs before the body: it subscribes, by speculative loads,
	// to the global words whose change must abort this attempt.
	Prologue() bool
	// PreCommit runs after the body returned nil, before the commit.
	PreCommit() bool
}

// Attempt runs fn once as a hardware transaction on path p. done is true
// when the transaction committed — counted in *commits — or fn returned an
// error, which aborts it and is returned as err; otherwise reason says why
// the hardware aborted. The failed attempt is parked here, once, whoever
// aborted it: a remote agent may win the race against any Abort below, which
// is then a no-op, and the reason reported is the hardware's.
func (h *HWWorker) Attempt(fn func(tx Tx) error, p HWPath, commits *uint64) (done bool, err error, reason memsim.AbortReason) {
	htx := h.Txn
	htx.Begin()
	if p.Prologue() {
		var aborted bool
		err, aborted = RunBody(fn, p)
		switch {
		case aborted:
		case err != nil:
			htx.Abort(memsim.AbortExplicit)
			h.Stats.UserErrors++
			done = true
		case !p.PreCommit():
		case h.InjectPct > 0 && h.Rng.Intn(100) < h.InjectPct:
			htx.Abort(memsim.AbortInjected)
		case htx.Commit():
			*commits++
			return true, nil, memsim.AbortNone
		}
	}
	htx.Fini()
	return done, err, htx.AbortReason()
}

// FastPath is an engine thread's retry policy around its hardware attempts.
type FastPath interface {
	// TryFast runs one attempt, normally through Attempt, with Attempt's
	// results. It may instead finish the transaction another way and
	// report done.
	TryFast(fn func(tx Tx) error) (done bool, err error, reason memsim.AbortReason)
	// GoSlow decides, after the attempt-th consecutive failed attempt
	// (counting from 0), whether to stop trying in hardware.
	GoSlow(attempt int, reason memsim.AbortReason) bool
	// RunSlow finishes the transaction off the hardware path.
	RunSlow(fn func(tx Tx) error) error
}

// GoSlow is the baselines' FastPath fallback policy: a persistent failure
// leaves the hardware at once, a transient one once MaxFastAttempts
// attempts have failed. RH1 and pure HTM define their own.
func (h *HWWorker) GoSlow(attempt int, reason memsim.AbortReason) bool {
	return reason.Persistent() || h.MaxFastAttempts > 0 && attempt+1 >= h.MaxFastAttempts
}

// Run drives fn to completion: hardware attempts, each failure counted by
// reason, with randomized backoff in between, until p sends it to the slow
// path.
func (h *HWWorker) Run(fn func(tx Tx) error, p FastPath) error {
	for attempt := 0; ; attempt++ {
		done, err, reason := p.TryFast(fn)
		if done {
			return err
		}
		h.Stats.FastAborts++
		if int(reason) < len(h.Stats.FastAbortsByReason) {
			h.Stats.FastAbortsByReason[reason]++
		}
		if p.GoSlow(attempt, reason) {
			return p.RunSlow(fn)
		}
		Backoff(h.Rng, attempt)
	}
}
