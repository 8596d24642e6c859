// Package sys assembles a complete simulated machine for the hybrid-TM
// protocols: one memsim.Memory laid out with a data heap, the per-stripe
// metadata arrays (versions and read masks), the global version clock, and
// the protocol-global counter words (is_RH2_fallback,
// is_all_software_slow_path).
//
// All engines attached to one System share this state, exactly as the
// paper's fast and slow paths share the stripe version array: conflicts
// between a hardware transaction's metadata writes and a software
// transaction's metadata reads are detected by the same simulated coherence
// that covers the data.
package sys

import (
	"fmt"

	"rhtm/internal/clock"
	"rhtm/internal/htm"
	"rhtm/internal/memsim"
)

// The machine's fixed shape. A cache line is 8 words (64 bytes) and one
// stripe version (and one read mask) covers one line, so stripe and line
// conflicts coincide. On a speculative collision the requester wins, as
// eager invalidation does, and a plain load of a line a hardware
// transaction wrote aborts that writer, as real coherence does. The
// DESIGN.md §3 ablations vary these memsim settings in their own tests.
const (
	wordsPerLine   = 8
	stripeShift    = 3 // log2 of the words per stripe
	wordsPerStripe = 1 << stripeShift
)

// Config sizes and parameterizes a System.
type Config struct {
	// DataWords is the size of the data heap in 64-bit words.
	DataWords int
	// ClockMode selects GV6 (paper) or GV5 (ablation).
	ClockMode clock.Mode
	// HTM bounds hardware-transaction footprints.
	HTM htm.Config
	// MaxThreads bounds worker threads per engine. Each stripe carries
	// ceil(MaxThreads/64) read-mask words — "for larger thread numbers,
	// additional read masks are required" (paper §4.1). Default 64.
	MaxThreads int
}

// DefaultConfig returns the configuration used by the benchmarks for a heap
// of the given word count.
func DefaultConfig(dataWords int) Config {
	return Config{
		DataWords:  dataWords,
		ClockMode:  clock.GV6,
		HTM:        htm.DefaultConfig(),
		MaxThreads: 64,
	}
}

// System is one simulated machine: memory, heap, metadata, clock, globals.
type System struct {
	Mem   *memsim.Memory
	Heap  *memsim.Heap
	Clock *clock.Clock

	// Versions is the global stripe version array (one word per stripe).
	Versions memsim.Region
	// Masks is the stripe read mask array (MaskWords words per stripe; bit
	// k%64 of word k/64 set means thread k's committing software
	// transaction is reading the stripe — RH2 §4.1).
	Masks memsim.Region
	// MaskWords is the number of read-mask words per stripe.
	MaskWords int

	// RH2FallbackAddr is the is_RH2_fallback counter word (RH1 Alg. 3).
	RH2FallbackAddr memsim.Addr
	// AllSoftwareAddr is the is_all_software_slow_path counter word
	// (RH2 Alg. 4/5).
	AllSoftwareAddr memsim.Addr

	cfg        Config
	data       memsim.Region
	maxThreads int
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if cfg.DataWords <= 0 {
		return nil, fmt.Errorf("sys: DataWords must be positive, got %d", cfg.DataWords)
	}
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 64
	}
	maskWords := (cfg.MaxThreads + 63) / 64
	stripes := (cfg.DataWords + wordsPerStripe - 1) / wordsPerStripe
	// Total memory: heap + versions + masks + clock line + two global lines,
	// plus alignment slack for each region boundary.
	total := cfg.DataWords + stripes + maskWords*stripes + 16*wordsPerLine
	mem := memsim.New(memsim.Config{
		Words:                  total,
		WordsPerLine:           wordsPerLine,
		Policy:                 memsim.RequesterWins,
		NonTxLoadAbortsWriters: true,
	})

	clk, err := clock.New(mem, cfg.ClockMode)
	if err != nil {
		return nil, err
	}
	// Each global counter gets its own line: these words are monitored
	// speculatively by every fast-path transaction and must not false-share
	// with anything.
	rh2fb, err := mem.AllocRegion(wordsPerLine)
	if err != nil {
		return nil, err
	}
	allsw, err := mem.AllocRegion(wordsPerLine)
	if err != nil {
		return nil, err
	}
	versions, err := mem.AllocRegion(stripes)
	if err != nil {
		return nil, err
	}
	masks, err := mem.AllocRegion(maskWords * stripes)
	if err != nil {
		return nil, err
	}
	heap, err := memsim.NewHeap(mem, cfg.DataWords)
	if err != nil {
		return nil, err
	}
	return &System{
		Mem:             mem,
		Heap:            heap,
		Clock:           clk,
		Versions:        versions,
		Masks:           masks,
		MaskWords:       maskWords,
		RH2FallbackAddr: rh2fb.Base,
		AllSoftwareAddr: allsw.Base,
		cfg:             cfg,
		data:            heap.Region(),
		maxThreads:      cfg.MaxThreads,
	}, nil
}

// MustNew is New for setup code.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// StripeOf returns the stripe index of data address a (the paper's
// get_stripe_index).
func (s *System) StripeOf(a memsim.Addr) int {
	if !s.data.Contains(a) {
		panic(fmt.Sprintf("sys: address %d outside the data heap", a))
	}
	return int(a-s.data.Base) >> stripeShift
}

// VersionAddr returns the address of the stripe version word covering a.
func (s *System) VersionAddr(a memsim.Addr) memsim.Addr {
	return s.Versions.Addr(s.StripeOf(a))
}

// MaskBase returns the address of the first read-mask word of a stripe.
func (s *System) MaskBase(stripe int) memsim.Addr {
	return s.Masks.Addr(stripe * s.MaskWords)
}

// MaskWordFor returns the mask word address and bit a thread uses on a
// stripe.
func (s *System) MaskWordFor(stripe, threadID int) (memsim.Addr, uint64) {
	return s.Masks.Addr(stripe*s.MaskWords + threadID/64), uint64(1) << uint(threadID%64)
}

// MaxThreads returns the per-engine worker-thread bound.
func (s *System) MaxThreads() int { return s.maxThreads }

// --- stripe version word encoding ---
//
// The low bit of a stripe version word is the lock bit (RH2 §4.2): an
// unlocked word holds version<<1; a locked word holds thread_id<<1|1, the
// paper's "ctx.thread_id * 2 + 1" lock value.

// PackVersion encodes an unlocked timestamp.
func PackVersion(v uint64) uint64 { return v << 1 }

// UnpackVersion decodes the timestamp of an unlocked word.
func UnpackVersion(w uint64) uint64 { return w >> 1 }

// IsLocked reports whether the word's lock bit is set.
func IsLocked(w uint64) bool { return w&1 == 1 }

// LockWord encodes the lock value of a thread.
func LockWord(threadID int) uint64 { return uint64(threadID)<<1 | 1 }
