package hytm

import (
	"math/rand"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
	"rhtm/internal/tl2"
)

// StandardHyTM is the traditional hybrid TM the paper benchmarks against:
// every hardware read and write is instrumented with a stripe-metadata load
// and a conditional branch (the lock test needed to coordinate with software
// transactions), and hardware writes additionally update the metadata. The
// software slow path is TL2 over the same stripe array.
type StandardHyTM struct {
	engine.Registry // Slow is the TL2 engine of the slow path

	opts Options
}

// NewStandard creates a Standard HyTM engine on s.
func NewStandard(s *sys.System, opts Options) *StandardHyTM {
	return &StandardHyTM{Registry: engine.Registry{Sys: s, Slow: tl2.New(s)}, opts: opts}
}

// Name implements engine.Engine.
func (e *StandardHyTM) Name() string { return "Standard HyTM" }

// NewThread implements engine.Engine.
func (e *StandardHyTM) NewThread() engine.Thread {
	t := &stdThread{eng: e, sys: e.Sys, slow: e.Slow.NewThread()}
	id := e.RegisterHW(&t.HWWorker, e.opts.InjectAbortPercent)
	t.Rng = rand.New(rand.NewSource(int64(id)*69621 + 11))
	if e.opts.Mixed {
		t.MaxFastAttempts = maxFastAttempts
	}
	return t
}

type stdThread struct {
	engine.HWWorker
	eng     *StandardHyTM
	sys     *sys.System
	slow    engine.Thread
	nextVer uint64
}

// Atomic implements engine.Thread: instrumented hardware attempts, with the
// TL2 slow path taken on persistent failure (always) and after the attempt
// budget (Mixed mode only; the paper's benchmark configuration retries in
// hardware indefinitely).
func (t *stdThread) Atomic(fn func(tx engine.Tx) error) error {
	defer t.Publish()
	return t.Run(fn, t)
}

// TryFast implements engine.FastPath: one instrumented hardware attempt.
// "The commit is immediate without any work" (§3.2): all coordination
// happens inline on each access.
func (t *stdThread) TryFast(fn func(tx engine.Tx) error) (bool, error, memsim.AbortReason) {
	return t.Attempt(fn, (*stdTx)(t), &t.Stats.FastCommits)
}

// RunSlow implements engine.FastPath.
func (t *stdThread) RunSlow(fn func(tx engine.Tx) error) error { return t.slow.Atomic(fn) }

type stdTx stdThread

// Prologue implements engine.HWPath. Like the RH1 fast path, writers need an
// install version; the clock is sampled speculatively (GV6: no store).
func (tx *stdTx) Prologue() bool {
	t := (*stdThread)(tx)
	sample, ok := t.Txn.Read(t.sys.Clock.Addr())
	if !ok {
		return false
	}
	t.nextVer = t.sys.Clock.NextFromSample(sample)
	t.Stats.MetadataReads++
	return true
}

// PreCommit implements engine.HWPath: nothing to do.
func (tx *stdTx) PreCommit() bool { return true }

// Load implements engine.Tx: the instrumented hardware read the paper's
// Figure 1 measures — a metadata load and a branch before the data load.
func (tx *stdTx) Load(a memsim.Addr) uint64 {
	t := (*stdThread)(tx)
	t.Stats.Reads++
	htx := t.Txn
	w, ok := htx.Read(t.sys.VersionAddr(a))
	if !ok {
		engine.Retry()
	}
	t.Stats.MetadataReads++
	if sys.IsLocked(w) {
		// A software transaction holds the stripe: the hardware transaction
		// cannot read consistently and must abort.
		htx.Abort(memsim.AbortExplicit)
		engine.Retry()
	}
	v, ok := htx.Read(a)
	if !ok {
		engine.Retry()
	}
	return v
}

// Store implements engine.Tx: metadata load, branch, metadata update, then
// the data store. The load and the branch run on every store, as on every
// load; the metadata update runs at the attempt's first store to the stripe
// only, as on the RH1 fast path — a repeat would store the version the
// write buffer already holds.
func (tx *stdTx) Store(a memsim.Addr, v uint64) {
	t := (*stdThread)(tx)
	t.Stats.Writes++
	htx := t.Txn
	va := t.sys.VersionAddr(a)
	w, ok := htx.Read(va)
	if !ok {
		engine.Retry()
	}
	t.Stats.MetadataReads++
	if sys.IsLocked(w) {
		htx.Abort(memsim.AbortExplicit)
		engine.Retry()
	}
	if !htx.Wrote(va) {
		if !htx.Write(va, sys.PackVersion(t.nextVer)) {
			engine.Retry()
		}
		t.Stats.MetadataWrites++
	}
	if !htx.Write(a, v) {
		engine.Retry()
	}
}

// Unsupported implements engine.Tx: aborts to the software slow path.
func (tx *stdTx) Unsupported() {
	t := (*stdThread)(tx)
	t.Txn.Unsupported()
	engine.Retry()
}
