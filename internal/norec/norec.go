// Package norec implements Hybrid NoRec (Dalessandro et al., PPoPP 2011),
// the second of the three prior approaches the paper's introduction
// discusses. NoRec keeps no per-location ownership records: a single global
// sequence counter orders write commits, and software transactions validate
// by value.
//
//   - The software path is the NoRec STM: reads are logged with their
//     values; whenever the global counter moves, the read log is revalidated
//     by re-reading values under a stable counter. Write commits take the
//     counter to odd (a sequence lock), write back, and release to even.
//
//   - The hardware path subscribes to the counter by reading it
//     speculatively at begin (aborting if a software commit is in flight)
//     and, if it wrote anything, increments it at commit to trigger software
//     revalidation. The counter write serializes hardware write commits on
//     one line — exactly the scalability ceiling the paper ascribes to this
//     design ("conflicts cannot be detected at a sufficiently low
//     granularity", §1).
//
// The package owns the sequence-counter protocol on both paths — the
// hardware path's subscription and bump, the software path's value log and
// sequence lock. The attempt driver, retry loop, registry and the software
// write buffer are internal/engine's.
package norec

import (
	"math/rand"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/scratch"
	"rhtm/internal/sys"
)

// maxFastAttempts bounds hardware attempts before the software path.
const maxFastAttempts = 8

// Options configures the Hybrid NoRec engine.
type Options struct {
	// InjectAbortPercent forces hardware commit aborts (§3.1 emulation).
	InjectAbortPercent int
}

// Engine is a Hybrid NoRec TM over a System. It uses only the system's
// memory and one global counter word — NoRec's defining property is that the
// stripe metadata arrays stay untouched.
type Engine struct {
	engine.Registry
	opts Options
	seq  memsim.Addr // global sequence counter; odd = software commit active
}

// New creates a Hybrid NoRec engine on s.
func New(s *sys.System, opts Options) (*Engine, error) {
	reg, err := s.Mem.AllocRegion(s.Mem.Config().WordsPerLine)
	if err != nil {
		return nil, err
	}
	return &Engine{Registry: engine.Registry{Sys: s}, opts: opts, seq: reg.Base}, nil
}

// MustNew is New for setup code.
func MustNew(s *sys.System, opts Options) *Engine {
	e, err := New(s, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "Hybrid NoRec" }

// NewThread implements engine.Engine.
func (e *Engine) NewThread() engine.Thread {
	t := &Thread{eng: e, sys: e.Sys}
	id := e.RegisterHW(&t.HWWorker, e.opts.InjectAbortPercent)
	t.Rng = rand.New(rand.NewSource(int64(id)*16807 + 3))
	t.MaxFastAttempts = maxFastAttempts
	return t
}

// readLogEntry is a value-logged software read.
type readLogEntry struct {
	addr memsim.Addr
	val  uint64
}

// Thread is a per-worker Hybrid NoRec context.
type Thread struct {
	engine.HWWorker
	eng *Engine
	sys *sys.System

	hw bool // current path

	snapshot uint64 // the counter as this attempt (either path) first saw it
	readLog  []readLogEntry
	writes   engine.WriteSet // software path only
}

// Atomic implements engine.Thread.
func (t *Thread) Atomic(fn func(tx engine.Tx) error) error {
	defer t.Publish()
	return t.Run(fn, t)
}

// TryFast implements engine.FastPath: one hardware attempt with counter
// subscription.
func (t *Thread) TryFast(fn func(tx engine.Tx) error) (bool, error, memsim.AbortReason) {
	t.hw = true
	return t.Attempt(fn, (*norecTx)(t), &t.Stats.FastCommits)
}

// Prologue implements engine.HWPath: subscribe to the counter.
func (tx *norecTx) Prologue() bool {
	t := (*Thread)(tx)
	c, ok := t.Txn.Read(t.eng.seq)
	if !ok {
		return false
	}
	t.Stats.MetadataReads++
	if c&1 == 1 {
		// A software commit is writing back; hardware cannot proceed.
		t.Txn.Abort(memsim.AbortExplicit)
		return false
	}
	t.snapshot = c
	return true
}

// PreCommit implements engine.HWPath. A transaction that wrote notifies
// software transactions: it bumps the counter by 2 (stays even) inside the
// hardware transaction. This is the write that serializes hardware write
// commits globally.
func (tx *norecTx) PreCommit() bool {
	t := (*Thread)(tx)
	if t.Txn.WriteSetLines() == 0 {
		return true
	}
	if !t.Txn.Write(t.eng.seq, t.snapshot+2) {
		return false
	}
	t.Stats.MetadataWrites++
	return true
}

// RunSlow implements engine.FastPath: the NoRec software path.
func (t *Thread) RunSlow(fn func(tx engine.Tx) error) error {
	t.hw = false
	return t.RunSoft(fn, (*norecTx)(t))
}

// Begin implements engine.SWPath.
func (tx *norecTx) Begin() {
	t := (*Thread)(tx)
	t.snapshot = t.waitEven()
	t.readLog = t.readLog[:0]
	t.writes.Reset()
}

// ReadOnly implements engine.SWPath.
func (tx *norecTx) ReadOnly() bool { return len(tx.writes.Entries) == 0 }

// Commit implements engine.SWPath: take the counter to odd (a sequence
// lock), revalidating by value whenever it moved, write back, release.
func (tx *norecTx) Commit() bool {
	t := (*Thread)(tx)
	mem := t.sys.Mem
	for !mem.CAS(t.eng.seq, t.snapshot, t.snapshot+1) {
		if !t.revalidate() {
			return false
		}
	}
	t.Stats.MetadataWrites++
	for _, w := range t.writes.Entries {
		mem.Store(w.Addr, w.Val)
	}
	mem.Store(t.eng.seq, t.snapshot+2)
	t.Stats.MetadataWrites++
	return true
}

// Aborted implements engine.SWPath: NoRec has no clock to advance.
func (tx *norecTx) Aborted() {}

// Trim implements engine.SWPath.
func (tx *norecTx) Trim() {
	tx.readLog = scratch.Reset(tx.readLog)
	tx.writes.Trim()
}

// waitEven spins until the global counter is even and returns it.
func (t *Thread) waitEven() uint64 {
	for spin := 0; ; spin++ {
		c := t.sys.Mem.Load(t.eng.seq)
		t.Stats.MetadataReads++
		if c&1 == 0 {
			return c
		}
		engine.Backoff(t.Rng, spin)
	}
}

// revalidate re-reads the whole value log under a stable counter, updating
// the snapshot on success (NoRec's value-based validation).
func (t *Thread) revalidate() bool {
	for {
		c := t.waitEven()
		ok := true
		for _, r := range t.readLog {
			if t.sys.Mem.Load(r.addr) != r.val {
				ok = false
				break
			}
		}
		if !ok {
			return false
		}
		t.Stats.MetadataReads++
		if t.sys.Mem.Load(t.eng.seq) == c {
			t.snapshot = c
			return true
		}
		// The counter moved during revalidation; try again.
	}
}

type norecTx Thread

// Load implements engine.Tx.
func (tx *norecTx) Load(a memsim.Addr) uint64 {
	t := (*Thread)(tx)
	t.Stats.Reads++
	if t.hw {
		v, ok := t.Txn.Read(a)
		if !ok {
			engine.Retry()
		}
		return v
	}
	if v, own := t.writes.Get(a); own {
		return v
	}
	// Consistent read: value is valid only if the counter did not move; if
	// it moved, revalidate the log (which re-reads this location too).
	for {
		v := t.sys.Mem.Load(a)
		t.Stats.MetadataReads++
		if t.sys.Mem.Load(t.eng.seq) == t.snapshot {
			t.readLog = append(t.readLog, readLogEntry{addr: a, val: v})
			return v
		}
		if !t.revalidate() {
			engine.Retry()
		}
	}
}

// Store implements engine.Tx.
func (tx *norecTx) Store(a memsim.Addr, v uint64) {
	t := (*Thread)(tx)
	t.Stats.Writes++
	if t.hw {
		if !t.Txn.Write(a, v) {
			engine.Retry()
		}
		return
	}
	t.writes.Put(a, v)
}

// Unsupported implements engine.Tx.
func (tx *norecTx) Unsupported() {
	t := (*Thread)(tx)
	if t.hw {
		t.Txn.Unsupported()
		engine.Retry()
	}
}
