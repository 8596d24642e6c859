// Package phased implements Phased TM (Lev, Moir & Nussbaum, TRANSACT 2007),
// the first of the prior approaches discussed in the paper's introduction:
// execution proceeds in global phases that are either all-hardware or
// all-software. In the hardware phase every transaction runs as a pure
// hardware transaction subscribed to the phase word; a transaction that
// cannot complete in hardware flips the phase, which aborts every in-flight
// hardware transaction and sends the whole system through the software (TL2)
// path until the instigators drain. This engine exists to reproduce the
// behaviour the paper criticizes: "poor performance if even a single
// transaction needs to be executed in software" (§1).
//
// The package owns the phase and count words: the subscription prologue,
// the pre-attempt phase check, the flip and the drain. The attempt driver,
// retry loop and registry are internal/engine's; the software phase runs on
// an embedded tl2 engine.
package phased

import (
	"math/rand"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
	"rhtm/internal/tl2"
)

// Phase word values.
const (
	phaseHardware = 0
	phaseSoftware = 1
)

// maxFastAttempts bounds hardware attempts before requesting a phase
// switch.
const maxFastAttempts = 8

// Options configures the Phased TM engine.
type Options struct {
	// InjectAbortPercent forces hardware commit aborts (§3.1 emulation).
	InjectAbortPercent int
}

// Engine is a Phased TM over a System.
type Engine struct {
	engine.Registry // Slow is the TL2 engine of the software phase

	opts  Options
	phase memsim.Addr // phaseHardware / phaseSoftware
	swCnt memsim.Addr // software transactions in flight
}

// New creates a Phased TM engine on s.
func New(s *sys.System, opts Options) (*Engine, error) {
	line := s.Mem.Config().WordsPerLine
	phaseReg, err := s.Mem.AllocRegion(line)
	if err != nil {
		return nil, err
	}
	cntReg, err := s.Mem.AllocRegion(line)
	if err != nil {
		return nil, err
	}
	return &Engine{
		Registry: engine.Registry{Sys: s, Slow: tl2.New(s)},
		opts:     opts,
		phase:    phaseReg.Base,
		swCnt:    cntReg.Base,
	}, nil
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
func (e *Engine) Name() string { return "Phased TM" }

// NewThread implements engine.Engine.
func (e *Engine) NewThread() engine.Thread {
	t := &Thread{eng: e, sys: e.Sys, slow: e.Slow.NewThread()}
	t.hw = phasedTx{(*engine.RawTx)(&t.HWWorker), e}
	id := e.RegisterHW(&t.HWWorker, e.opts.InjectAbortPercent)
	t.Rng = rand.New(rand.NewSource(int64(id)*40692 + 5))
	t.MaxFastAttempts = maxFastAttempts
	return t
}

// Thread is a per-worker Phased TM context.
type Thread struct {
	engine.HWWorker
	eng  *Engine
	sys  *sys.System
	slow engine.Thread
	hw   phasedTx // this thread's hardware-phase path
}

// Atomic implements engine.Thread.
func (t *Thread) Atomic(fn func(tx engine.Tx) error) error {
	defer t.Publish()
	return t.Run(fn, t)
}

// TryFast implements engine.FastPath: one pure hardware attempt subscribed
// to the phase word — unless the phase says software, OR software
// transactions are still draining after a phase flip raced back: hardware
// may never overlap an in-flight software write-back, so the transaction
// then runs in software and is done.
func (t *Thread) TryFast(fn func(tx engine.Tx) error) (bool, error, memsim.AbortReason) {
	if t.sys.Mem.Load(t.eng.phase) == phaseSoftware ||
		t.sys.Mem.Load(t.eng.swCnt) > 0 {
		return true, t.runSoftware(fn), memsim.AbortNone
	}
	return t.Attempt(fn, &t.hw, &t.Stats.FastCommits)
}

// RunSlow implements engine.FastPath: flip the whole system to the software
// phase. The plain store aborts every hardware transaction subscribed to
// the phase word — the global disruption Phased TM is known for.
func (t *Thread) RunSlow(fn func(tx engine.Tx) error) error {
	t.sys.Mem.Store(t.eng.phase, phaseSoftware)
	return t.runSoftware(fn)
}

// runSoftware executes fn under TL2 while registered in the software count;
// the last software transaction out restores the hardware phase.
func (t *Thread) runSoftware(fn func(tx engine.Tx) error) error {
	mem := t.sys.Mem
	mem.FetchAdd(t.eng.swCnt, 1)
	err := t.slow.Atomic(fn)
	if mem.AddInt(t.eng.swCnt, -1) == 0 {
		// Best-effort phase restoration; racing decrementers may both see
		// zero, in which case both stores write the same value.
		mem.Store(t.eng.phase, phaseHardware)
	}
	return err
}

// phasedTx is a hardware-phase attempt: the raw hardware Tx, uninstrumented
// in the hardware phase, and a Prologue that subscribes to the phase.
type phasedTx struct {
	*engine.RawTx
	eng *Engine
}

// Prologue implements engine.HWPath: subscribe to the phase word, and to the
// software count as well: a software transaction that sneaks in after the
// phase check increments it with a plain fetch-and-add, which aborts this
// hardware transaction through coherence before any non-atomic software
// write-back can be observed.
func (tx *phasedTx) Prologue() bool {
	p, ok := tx.Txn.Read(tx.eng.phase)
	if !ok {
		return false
	}
	cnt, ok := tx.Txn.Read(tx.eng.swCnt)
	if !ok {
		return false
	}
	tx.Stats.MetadataReads += 2
	if p != phaseHardware || cnt > 0 {
		tx.Txn.Abort(memsim.AbortExplicit)
		return false
	}
	return true
}
