package memsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Addr is the index of a 64-bit word in a Memory. Address 0 is reserved as
// the null address: regions are allocated starting at word 1 so that
// containers can use 0 as a nil pointer.
type Addr uint64

// NilAddr is the reserved null word address.
const NilAddr Addr = 0

// AbortReason classifies why a speculative transaction was aborted. The
// values mirror the abort status codes reported by best-effort HTM
// implementations (Intel TSX EAX codes, POWER TEXASR), reduced to the
// categories the hybrid-TM protocols dispatch on.
type AbortReason uint32

const (
	// AbortNone means the transaction has not been aborted.
	AbortNone AbortReason = iota
	// AbortConflict: another speculative transaction touched a line in this
	// transaction's footprint (transactional conflict).
	AbortConflict
	// AbortNonTxConflict: a plain, non-transactional access touched a line in
	// this transaction's footprint (coherence snoop from regular code).
	AbortNonTxConflict
	// AbortCapacity: the transaction exceeded the simulated L1 read or write
	// capacity. This is the persistent failure mode the paper's fallback
	// logic keys on.
	AbortCapacity
	// AbortExplicit: the transaction executed an explicit abort instruction
	// (protocol-level validation failure, e.g. the RH1 fallback-counter check).
	AbortExplicit
	// AbortUnsupported: the transaction attempted an operation that hardware
	// transactions cannot execute (system call, protected instruction). Like
	// AbortCapacity this is persistent: retrying in hardware cannot succeed.
	AbortUnsupported
	// AbortInjected: the harness injected an abort to force a target abort
	// ratio, reproducing the emulation methodology of the paper's §3.1.
	AbortInjected
)

// String returns a short human-readable name for the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortConflict:
		return "conflict"
	case AbortNonTxConflict:
		return "nontx-conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	case AbortUnsupported:
		return "unsupported"
	case AbortInjected:
		return "injected"
	default:
		return fmt.Sprintf("reason(%d)", uint32(r))
	}
}

// Persistent reports whether retrying in hardware is pointless: the abort is
// structural (capacity overflow or an unsupported instruction) rather than a
// result of concurrency. The hybrid protocols use this to decide between
// "retry the hardware path" and "take the next fallback level".
func (r AbortReason) Persistent() bool {
	return r == AbortCapacity || r == AbortUnsupported
}

// Handle is the view the memory has of an in-flight speculative transaction.
// It is implemented by htm.Txn. All methods must be safe for concurrent use.
type Handle interface {
	// TryAbort moves the transaction from running to aborted with the given
	// reason. It returns true if this call performed the transition, false if
	// the transaction had already committed or aborted.
	TryAbort(reason AbortReason) bool
	// Running reports whether the transaction is still speculating (neither
	// committed nor aborted).
	Running() bool
}

// ConflictPolicy selects which transaction dies when two speculative
// transactions collide on a line.
type ConflictPolicy int

const (
	// RequesterWins: the transaction issuing the new access aborts the
	// transactions already monitoring the line. This mirrors the coherence
	// behaviour of eager HTM designs: the incoming request invalidates or
	// downgrades the line, killing the speculation that held it.
	RequesterWins ConflictPolicy = iota
	// CommitterWins: the transaction issuing the new access aborts itself,
	// leaving established monitors untouched. Available as an ablation knob.
	CommitterWins
)

// Config parameterizes a Memory.
type Config struct {
	// Words is the total number of 64-bit words.
	Words int
	// WordsPerLine is the conflict-detection granularity in words. Must be a
	// power of two. The default (8 words = 64 bytes) matches common cache
	// lines; 1 disables false sharing.
	WordsPerLine int
	// Policy selects the conflict-resolution policy between speculative
	// transactions.
	Policy ConflictPolicy
	// NonTxLoadAbortsWriters controls whether a plain load aborts speculative
	// writers of the line. True mirrors Intel TSX, where any snoop of a line
	// in the write set aborts the transaction.
	NonTxLoadAbortsWriters bool
}

// monEntry records one transaction monitoring a line. writer is true if the
// transaction declared a speculative write to the line (the line is in its
// write set); a reader that later writes has its entry upgraded in place.
type monEntry struct {
	h      Handle
	line   uint64
	writer bool
}

// nStripes is the size of the lock-stripe table: a power of two, fixed so the
// table (32 bytes a stripe, 512 KiB) stays cache-resident however large
// Config.Words is.
const (
	nStripes   = 1 << 14
	stripeMask = nStripes - 1
)

// stripe guards every line whose id is congruent to its index modulo
// nStripes: mu serializes all locked accesses to those lines' words and mons
// holds their monitor entries. Only the lock is shared — each entry carries
// its line id, and conflicts are detected between entries of one line only.
type stripe struct {
	mu   sync.Mutex
	mons []monEntry
}

// Memory is a flat simulated word memory with line-granularity conflict
// detection. See the package documentation for the model.
type Memory struct {
	cfg       Config
	lineShift uint
	words     []uint64
	stripes   [nStripes]stripe

	// slab hands a cold stripe its first monitor entry (see addMonitor),
	// under slabMu, a leaf lock taken inside a stripe's.
	slabMu sync.Mutex
	slab   []monEntry

	regionMu sync.Mutex
	nextFree Addr
}

// slabEntries is how many first entries one slab allocation serves.
const slabEntries = 256

// addMonitor appends e to s's monitor entries. A stripe with none yet takes a
// one-entry slice of the memory's slab instead of allocating its own: a fresh
// System's first pass touches thousands of cold stripes, and each would
// otherwise cost an allocation. A stripe that outgrows its entry grows by
// append. Callers must hold s.mu.
func (m *Memory) addMonitor(s *stripe, e monEntry) {
	if cap(s.mons) == 0 {
		m.slabMu.Lock()
		if len(m.slab) == 0 {
			m.slab = make([]monEntry, slabEntries)
		}
		s.mons, m.slab = m.slab[:0:1], m.slab[1:]
		m.slabMu.Unlock()
	}
	s.mons = append(s.mons, e)
}

// New creates a Memory from cfg. It panics if the configuration is invalid;
// a malformed memory is a programming error, not a runtime condition.
func New(cfg Config) *Memory {
	if cfg.Words <= 0 {
		panic("memsim: Config.Words must be positive")
	}
	if cfg.WordsPerLine <= 0 || cfg.WordsPerLine&(cfg.WordsPerLine-1) != 0 {
		panic("memsim: Config.WordsPerLine must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.WordsPerLine {
		shift++
	}
	return &Memory{
		cfg:       cfg,
		lineShift: shift,
		words:     make([]uint64, cfg.Words),
		nextFree:  1, // word 0 is the reserved null address
	}
}

// Config returns the memory's configuration.
func (m *Memory) Config() Config { return m.cfg }

// Words returns the total number of words in the memory.
func (m *Memory) Words() int { return m.cfg.Words }

// LineOf returns the line index containing address a.
func (m *Memory) LineOf(a Addr) uint64 { return uint64(a) >> m.lineShift }

// stripeOf returns the stripe guarding line id.
func (m *Memory) stripeOf(id uint64) *stripe { return &m.stripes[id&stripeMask] }

// at resolves a to its word, its line id and the stripe guarding that line.
// Every entry point calls it before taking any lock, so an out-of-range
// address panics on the index here with no stripe held.
func (m *Memory) at(a Addr) (w *uint64, id uint64, s *stripe) {
	w = &m.words[a]
	id = uint64(a) >> m.lineShift
	return w, id, m.stripeOf(id)
}

// abortMonitors aborts every active monitor of line id except self, with the
// given reason, and prunes that line's entries that are no longer running.
// Entries of other lines on the stripe are left alone. Callers must hold s.mu.
func abortMonitors(s *stripe, id uint64, self Handle, reason AbortReason) {
	s.mons = slices.DeleteFunc(s.mons, func(e monEntry) bool {
		// Aborted now, or already finished: drop the entry.
		return e.line == id && e.h != self && (e.h.TryAbort(reason) || !e.h.Running())
	})
}

// abortWriters aborts active writers of line id except self and prunes that
// line's dead entries. Callers must hold s.mu.
func abortWriters(s *stripe, id uint64, self Handle, reason AbortReason) {
	s.mons = slices.DeleteFunc(s.mons, func(e monEntry) bool {
		return e.line == id && (e.h != self && e.writer && e.h.TryAbort(reason) || !e.h.Running())
	})
}

// hasOtherActiveMonitor reports whether any transaction other than self
// actively monitors line id. Callers must hold s.mu.
func hasOtherActiveMonitor(s *stripe, id uint64, self Handle) bool {
	for _, e := range s.mons {
		if e.line == id && e.h != self && e.h.Running() {
			return true
		}
	}
	return false
}

// Load performs a plain (non-transactional) load of a. Depending on the
// configuration it aborts speculative writers of the line, modelling the
// read snoop a regular load issues on real hardware.
func (m *Memory) Load(a Addr) uint64 {
	w, id, s := m.at(a)
	s.mu.Lock()
	if m.cfg.NonTxLoadAbortsWriters {
		abortWriters(s, id, nil, AbortNonTxConflict)
	}
	v := *w
	s.mu.Unlock()
	return v
}

// Store performs a plain (non-transactional) store to a. It aborts every
// speculative transaction monitoring the line: a store issues an invalidating
// snoop, which kills both speculative readers and writers of the line. This
// property is load-bearing for the protocols — e.g. RH2's switch to the
// all-software write-back aborts hardware transactions precisely because they
// speculatively read the is_all_software counter word.
//
// Like every store to a word it aborts the line's monitors before it stores,
// and stores atomically: SpecReload reads words without the stripe lock.
func (m *Memory) Store(a Addr, v uint64) {
	w, id, s := m.at(a)
	s.mu.Lock()
	abortMonitors(s, id, nil, AbortNonTxConflict)
	atomic.StoreUint64(w, v)
	s.mu.Unlock()
}

// CAS atomically compares-and-swaps the word at a. Like Store it aborts every
// monitor of the line regardless of outcome: even a failed CAS issued a
// request-for-ownership snoop.
func (m *Memory) CAS(a Addr, old, new uint64) bool {
	w, id, s := m.at(a)
	s.mu.Lock()
	abortMonitors(s, id, nil, AbortNonTxConflict)
	ok := *w == old
	if ok {
		atomic.StoreUint64(w, new)
	}
	s.mu.Unlock()
	return ok
}

// FetchAdd atomically adds delta to the word at a and returns the new value,
// aborting every monitor of the line. delta may be negative via two's
// complement (pass ^uint64(0) to subtract one, or use AddInt for clarity).
func (m *Memory) FetchAdd(a Addr, delta uint64) uint64 {
	w, id, s := m.at(a)
	s.mu.Lock()
	abortMonitors(s, id, nil, AbortNonTxConflict)
	v := *w + delta
	atomic.StoreUint64(w, v)
	s.mu.Unlock()
	return v
}

// AddInt is FetchAdd with a signed delta.
func (m *Memory) AddInt(a Addr, delta int64) uint64 {
	return m.FetchAdd(a, uint64(delta))
}

// Peek reads the word at a without taking the stripe lock or issuing a snoop.
// It is intended for single-threaded setup and for test assertions after all
// workers have stopped; using it concurrently with writers is a data race.
func (m *Memory) Peek(a Addr) uint64 { return m.words[a] }

// Poke writes the word at a without snooping, under the same single-threaded
// contract as Peek. Containers use it to populate structures before the
// concurrent phase starts.
func (m *Memory) Poke(a Addr, v uint64) { m.words[a] = v }
