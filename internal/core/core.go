// Package core implements the paper's contribution: reduced hardware (RH)
// transactions. One Engine provides the full multi-level protocol stack:
//
//	RH1 fast path    — pure hardware transaction; reads uninstrumented,
//	                   writes add one stripe-version store per written
//	                   stripe (Alg. 1+3).
//	RH1 slow path    — "mixed" transaction: body fully in software, commit in
//	                   one short hardware transaction that revalidates the
//	                   read set and performs the write-back (Alg. 2).
//	RH2 fallback     — taken when the RH1 commit hardware transaction fails
//	                   persistently: write-set locking + commit-time visible
//	                   read masks; only the write-back runs in hardware
//	                   (Alg. 4, 5, 7).
//	slow-slow path   — all-software write-back plus the fast-path-slow-read
//	                   hardware mode with TL2-style instrumented reads
//	                   (Alg. 6), entered when even the RH2 write-back
//	                   hardware transaction cannot commit.
//
// The Engine can also be configured as a standalone RH2 protocol
// (ProtocolRH2), which the paper describes as usable in its own right.
//
// What this package owns: the order of each protocol's steps, every
// per-access Load/Store, the commit-time hardware transactions of Alg. 2 and
// Alg. 5, read-mask visibility, and the three global switches. The attempt
// driver, the fast-retry loop and the thread registry are internal/engine's;
// the software read/write sets and the lock / validate / release steps are
// tl2.Txn, the same type TL2 itself runs on.
package core

import (
	"math/rand"
	"strconv"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
	"rhtm/internal/tl2"
)

// Protocol selects which level of the stack is the entry point.
type Protocol int

const (
	// ProtocolRH1 is the full stack: RH1 fast/slow with RH2 fallback.
	ProtocolRH1 Protocol = iota
	// ProtocolRH2 runs RH2 as the primary protocol (no RH1 level).
	ProtocolRH2
)

// Mode selects the retry policy of the fast path.
type Mode int

const (
	// ModeMixed falls back to the slow path for a configurable percentage of
	// fast-path aborts (the paper's "RH1 Mix N" configurations), and always
	// after a persistent hardware failure.
	ModeMixed Mode = iota
	// ModeFastOnly retries the fast path indefinitely on transient aborts
	// (the paper's "RH1 Fast" configuration). Persistent failures (capacity,
	// unsupported instruction) still take the slow path: unlike the paper's
	// emulated benchmarks, a library cannot spin forever on an abort that
	// can never succeed.
	ModeFastOnly
	// ModeSlowOnly sends every transaction straight to the mixed slow path
	// (the paper's "RH1 Slow" row in the Figure 2 breakdown tables).
	ModeSlowOnly
)

// Options configures an Engine.
type Options struct {
	// Protocol selects RH1 (full stack) or standalone RH2.
	Protocol Protocol
	// Mode selects the fast-path retry policy.
	Mode Mode
	// MixPercent is the percentage (0..100) of transient fast-path aborts
	// that are retried on the slow path when Mode == ModeMixed. The paper's
	// RH1 Mixed 10 and RH1 Mixed 100 correspond to 10 and 100.
	MixPercent int
	// InjectAbortPercent forces this percentage of fast-path hardware
	// transactions to abort at commit, reproducing the paper's §3.1
	// emulation methodology of imposing a measured abort ratio. 0 disables.
	InjectAbortPercent int
}

// commitHTMRetries bounds retries of the RH2 write-back hardware transaction
// before switching to the all-software write-back. The paper retries on
// contention and falls back on hardware limitation; a bound additionally
// protects against pathological livelock.
const commitHTMRetries = 8

// maxFastAttempts bounds consecutive fast-path attempts in ModeMixed
// regardless of MixPercent (a deterministic attempt-count contention
// policy).
const maxFastAttempts = 16

// DefaultOptions returns the full RH1 stack with the paper's Mixed-100
// policy.
func DefaultOptions() Options {
	return Options{
		Protocol:   ProtocolRH1,
		Mode:       ModeMixed,
		MixPercent: 100,
	}
}

// Engine is a reduced-hardware-transactions engine over a System.
type Engine struct {
	engine.Registry
	opts Options
}

// New creates an Engine on s with the given options.
func New(s *sys.System, opts Options) *Engine {
	if opts.MixPercent < 0 {
		opts.MixPercent = 0
	}
	if opts.MixPercent > 100 {
		opts.MixPercent = 100
	}
	return &Engine{Registry: engine.Registry{Sys: s}, opts: opts}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	base := "RH1"
	if e.opts.Protocol == ProtocolRH2 {
		base = "RH2"
	}
	switch e.opts.Mode {
	case ModeFastOnly:
		return base + " Fast"
	case ModeSlowOnly:
		return base + " Slow"
	default:
		return base + " Mixed " + strconv.Itoa(e.opts.MixPercent)
	}
}

// NewThread implements engine.Engine.
func (e *Engine) NewThread() engine.Thread {
	t := &Thread{eng: e, sys: e.Sys, stripes: make(map[int]struct{}, 32)}
	id := e.RegisterHW(&t.HWWorker, e.opts.InjectAbortPercent)
	t.Rng = rand.New(rand.NewSource(int64(id)*1103515245 + 12345))
	t.sw.Init(e.Sys, id, &t.Stats)
	return t
}

// path identifies which protocol level the currently executing body runs on;
// the Tx dispatch methods switch on it.
type path int

const (
	pathRH1Fast path = iota
	pathRH2Fast
	pathRH2FastSR
	pathSlow
)

// Thread is a per-worker context for the full protocol stack. Not safe for
// concurrent use.
type Thread struct {
	engine.HWWorker
	eng  *Engine
	sys  *sys.System
	path path

	// Fast-path state.
	nextVer   uint64        // version hardware writes install (Alg. 1 line 3)
	fastWrSet []memsim.Addr // RH2 fast path's write log (Alg. 4 lines 12-15)
	wStripes  []int         // its distinct stripes, once the pre-commit step locked them

	// Slow-path state: the software transaction of Alg. 2 and Alg. 5 (its
	// Version is also the slow-read mode's tx_version), and the mask words
	// the RH2 commit made it visible on.
	sw      tl2.Txn
	visible []memsim.Addr
	stripes map[int]struct{} // scratch: distinct stripe set
}

// Atomic implements engine.Thread. It drives the multi-level retry policy:
// hardware attempts first, then — per mode, or forced by a persistent
// hardware failure — the mixed slow path, which internally escalates
// through RH2 and the all-software write-back.
func (t *Thread) Atomic(fn func(tx engine.Tx) error) error {
	defer t.Publish()
	if t.eng.opts.Mode == ModeSlowOnly {
		return t.RunSlow(fn)
	}
	return t.Run(fn, t)
}

// GoSlow implements engine.FastPath: a persistent failure always takes the
// slow path, a transient one per the mode's policy.
func (t *Thread) GoSlow(attempt int, reason memsim.AbortReason) bool {
	opts := &t.eng.opts
	switch {
	case reason.Persistent():
		return true
	case opts.Mode == ModeFastOnly:
		return false
	case attempt+1 >= maxFastAttempts:
		return true
	case opts.MixPercent == 0:
		return false
	}
	return t.Rng.Intn(100) < opts.MixPercent
}

// RunSlow implements engine.FastPath: the mixed slow path, a software body
// (Begin, below) and then the protocol's commit.
func (t *Thread) RunSlow(fn func(tx engine.Tx) error) error {
	return t.RunSoft(fn, (*coreTx)(t))
}

// coreTx adapts Thread to engine.HWPath and engine.SWPath, dispatching on
// the active path.
type coreTx Thread

// Load implements engine.Tx.
func (tx *coreTx) Load(a memsim.Addr) uint64 {
	t := (*Thread)(tx)
	t.Stats.Reads++
	switch t.path {
	case pathRH1Fast, pathRH2Fast:
		// Uninstrumented hardware read (Alg. 1 line 13, Alg. 4 line 18).
		v, ok := t.Txn.Read(a)
		if !ok {
			engine.Retry()
		}
		return v
	case pathRH2FastSR:
		return t.srRead(a)
	default:
		// Software read with write-set lookup (Alg. 2 lines 9-11).
		if v, own := t.sw.Writes.Get(a); own {
			return v
		}
		return t.sw.Read(a)
	}
}

// Store implements engine.Tx.
func (tx *coreTx) Store(a memsim.Addr, v uint64) {
	t := (*Thread)(tx)
	t.Stats.Writes++
	switch t.path {
	case pathRH1Fast:
		t.rh1FastWrite(a, v)
	case pathRH2Fast, pathRH2FastSR:
		t.rh2FastWrite(a, v)
	default:
		t.sw.Writes.Put(a, v) // buffered until commit (Alg. 2 lines 5-7)
	}
}

// Unsupported implements engine.Tx. On any hardware path it aborts the
// hardware transaction with the persistent "unsupported" reason, sending the
// transaction to the software slow path; on the slow path the body runs in
// plain software where such operations are legal, so it is a no-op.
func (tx *coreTx) Unsupported() {
	t := (*Thread)(tx)
	if t.path != pathSlow {
		t.Txn.Unsupported()
		engine.Retry()
	}
}
