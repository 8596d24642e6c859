// Package rhtm is a Go reproduction of "Reduced Hardware Transactions: A New
// Approach to Hybrid Transactional Memory" (Matveev & Shavit, 2013).
//
// Because Go exposes no hardware transactional memory — and its goroutine
// preemption would abort real HTM regions constantly — the library runs on a
// simulated machine: a flat word memory with cache-line-granularity conflict
// detection and a best-effort HTM built on it (see DESIGN.md for the
// substitution argument). On that substrate it provides the paper's full
// protocol stack (RH1 fast/slow paths, the RH2 fallback, and the
// all-software slow-slow path) plus every baseline of the paper's
// evaluation: uninstrumented HTM, Standard HyTM, TL2, Hybrid NoRec and
// Phased TM.
//
// # Quick start
//
//	s, _ := rhtm.NewSystem(rhtm.DefaultConfig(1 << 16))
//	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
//	counter := s.MustAlloc(1)
//
//	th := eng.NewThread() // one per goroutine
//	err := th.Atomic(func(tx rhtm.Tx) error {
//	    tx.Store(counter, tx.Load(counter)+1)
//	    return nil
//	})
//
// Transactional data lives in the simulated memory and is addressed by
// rhtm.Addr word handles obtained from System.MustAlloc. The containers
// package builds red-black trees, hash tables and lists on top of this API.
package rhtm

import (
	"rhtm/internal/clock"
	"rhtm/internal/core"
	"rhtm/internal/engine"
	"rhtm/internal/htm"
	"rhtm/internal/hytm"
	"rhtm/internal/memsim"
	"rhtm/internal/norec"
	"rhtm/internal/phased"
	"rhtm/internal/sys"
	"rhtm/internal/tl2"
)

// Addr is the address of one 64-bit word of simulated transactional memory.
type Addr = memsim.Addr

// NilAddr is the reserved null address (never returned by Alloc).
const NilAddr = memsim.NilAddr

// Tx is the operation surface visible inside a transaction body.
type Tx = engine.Tx

// Thread is a per-goroutine transaction context; obtain one from
// Engine.NewThread and do not share it.
type Thread = engine.Thread

// Engine is one transactional-memory implementation.
type Engine = engine.Engine

// Stats aggregates engine activity; see Engine.Snapshot.
type Stats = engine.Stats

// AbortReason classifies hardware aborts in Stats.
type AbortReason = memsim.AbortReason

// ClockMode selects the global-version-clock discipline.
type ClockMode = clock.Mode

// Clock modes: GV6 (the paper's choice: advance on abort only) and GV5
// (increment on every commit; ablation).
const (
	GV6 = clock.GV6
	GV5 = clock.GV5
)

// HTMConfig bounds simulated hardware-transaction footprints.
type HTMConfig = htm.Config

// Config sizes the simulated machine. The machine's fixed shape — 64-byte
// cache lines, one metadata stripe per line, requester-wins conflicts and
// 64 threads per engine — lives in internal/sys.
type Config struct {
	// DataWords is the transactional heap size in 64-bit words.
	DataWords int
	// ClockMode selects GV6 (default) or GV5.
	ClockMode ClockMode
	// HTM bounds hardware transactions; zero value selects the default
	// (512-line write sets, 2048-line total footprints).
	HTM HTMConfig
}

// DefaultConfig returns the benchmark configuration for a heap of the given
// word count.
func DefaultConfig(dataWords int) Config {
	return Config{DataWords: dataWords, ClockMode: GV6, HTM: htm.DefaultConfig()}
}

// System is one simulated machine: word memory, heap, TM metadata, clock.
// All engines created on the same System share its metadata and conflict
// detection, so transactions from different engines on one System
// interoperate the way the paper's fast and slow paths do.
type System struct {
	inner *sys.System
}

// NewSystem builds a System from cfg.
func NewSystem(cfg Config) (*System, error) {
	inner, err := sys.New(cfg.machine())
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// MustNewSystem is NewSystem for setup code.
func MustNewSystem(cfg Config) *System { return &System{inner: sys.MustNew(cfg.machine())} }

// machine translates cfg to the simulated machine's configuration.
func (cfg Config) machine() sys.Config {
	sc := sys.DefaultConfig(cfg.DataWords)
	sc.ClockMode = cfg.ClockMode
	if cfg.HTM != (HTMConfig{}) {
		sc.HTM = cfg.HTM
	}
	return sc
}

// Alloc reserves a zeroed block of n words of transactional memory.
func (s *System) Alloc(n int) (Addr, error) { return s.inner.Heap.Alloc(n) }

// MustAlloc is Alloc for setup code.
func (s *System) MustAlloc(n int) Addr { return s.inner.Heap.MustAlloc(n) }

// MustAllocLines is MustAlloc with n rounded up to whole cache lines. The
// heap line-aligns such a block, so it shares a line with no other
// allocation: the home for a word many transactions read and few write (a
// tree root, a counter), which must not abort its readers whenever an
// unrelated neighbour is written.
func (s *System) MustAllocLines(n int) Addr {
	line := s.inner.Mem.Config().WordsPerLine
	return s.inner.Heap.MustAlloc((n + line - 1) / line * line)
}

// Free returns a block previously obtained from Alloc with the same size.
func (s *System) Free(a Addr, n int) { s.inner.Heap.Free(a, n) }

// Load performs a plain (non-transactional) load, with the coherence
// side effects a real non-transactional load has (it may abort hardware
// transactions speculating on the line).
func (s *System) Load(a Addr) uint64 { return s.inner.Mem.Load(a) }

// Store performs a plain (non-transactional) store; it aborts every
// hardware transaction monitoring the line, as real coherence would.
func (s *System) Store(a Addr, v uint64) { s.inner.Mem.Store(a, v) }

// Peek reads a word without coherence side effects. Only safe while no
// transactions are in flight (setup and verification).
func (s *System) Peek(a Addr) uint64 { return s.inner.Mem.Peek(a) }

// Poke writes a word without coherence side effects, under the same
// single-threaded contract as Peek.
func (s *System) Poke(a Addr, v uint64) { s.inner.Mem.Poke(a, v) }

// Internal exposes the underlying machine to sibling packages (containers,
// the benchmark harness). It is not part of the stable API.
func (s *System) Internal() *sys.System { return s.inner }

// --- engine constructors ---

// RH1Options configures the reduced-hardware-transactions engine.
type RH1Options struct {
	// FastOnly retries the hardware fast path indefinitely on transient
	// aborts (the paper's "RH1 Fast"); otherwise aborts fall back to the
	// mixed slow path per MixPercent (the paper's "RH1 Mixed N").
	FastOnly bool
	// SlowOnly sends every transaction straight to the mixed slow path (the
	// paper's "RH1 Slow" breakdown configuration). Overrides FastOnly.
	SlowOnly bool
	// MixPercent is the percentage of transient fast-path aborts retried on
	// the slow path (ignored when FastOnly).
	MixPercent int
	// InjectAbortPercent forces this share of hardware commits to abort,
	// reproducing the paper's emulation methodology.
	InjectAbortPercent int
}

// DefaultRH1Options returns the paper's RH1 Mixed 100 configuration.
func DefaultRH1Options() RH1Options {
	return RH1Options{MixPercent: 100}
}

func (o RH1Options) toCore(p core.Protocol) core.Options {
	opts := core.DefaultOptions()
	opts.Protocol = p
	if o.FastOnly {
		opts.Mode = core.ModeFastOnly
	}
	if o.SlowOnly {
		opts.Mode = core.ModeSlowOnly
	}
	opts.MixPercent = o.MixPercent
	opts.InjectAbortPercent = o.InjectAbortPercent
	return opts
}

// NewRH1 creates the full reduced-hardware protocol stack (RH1 with RH2 and
// all-software fallbacks) — the paper's primary contribution.
func NewRH1(s *System, o RH1Options) Engine {
	return core.New(s.inner, o.toCore(core.ProtocolRH1))
}

// NewRH2 creates a standalone RH2 engine (locks plus commit-time visible
// read masks; §4).
func NewRH2(s *System, o RH1Options) Engine {
	return core.New(s.inner, o.toCore(core.ProtocolRH2))
}

// NewTL2 creates the TL2 STM baseline.
func NewTL2(s *System) Engine { return tl2.New(s.inner) }

// HWOptions configures the hardware baseline engines.
type HWOptions struct {
	// InjectAbortPercent forces hardware commit aborts.
	InjectAbortPercent int
}

// NewHTM creates the uninstrumented pure-hardware baseline. Transactions
// that persistently cannot run in hardware fail with an error.
func NewHTM(s *System, o HWOptions) Engine {
	return hytm.NewPureHTM(s.inner, hytm.Options{InjectAbortPercent: o.InjectAbortPercent})
}

// NewStandardHyTM creates the traditional instrumented hybrid baseline.
func NewStandardHyTM(s *System, o HWOptions) Engine {
	return hytm.NewStandard(s.inner, hytm.Options{InjectAbortPercent: o.InjectAbortPercent})
}

// NewHybridNoRec creates the Hybrid NoRec baseline.
func NewHybridNoRec(s *System, o HWOptions) Engine {
	return norec.MustNew(s.inner, norec.Options{InjectAbortPercent: o.InjectAbortPercent})
}

// NewPhasedTM creates the Phased TM baseline.
func NewPhasedTM(s *System, o HWOptions) Engine {
	return phased.MustNew(s.inner, phased.Options{InjectAbortPercent: o.InjectAbortPercent})
}
