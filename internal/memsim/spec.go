package memsim

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// CommitterHandle extends Handle with the commit transition. CommitTxn
// requires it so that the switch to "committed" happens at the linearization
// point, while the transaction's whole footprint is locked.
type CommitterHandle interface {
	Handle
	// TryCommit moves the transaction from running to committed, returning
	// true if this call performed the transition (false if it lost a race
	// with an abort).
	TryCommit() bool
}

// SpecLoad performs a transaction's first speculative load from a's line: it
// adds h to the line's monitor set as a reader and returns the word. The
// caller, htm.Txn, tracks which lines it already monitors and serves repeat
// accesses with SpecReload, which keeps the set duplicate-free.
//
// Conflicting speculative writers of the line are resolved per the configured
// policy: under RequesterWins they are aborted; under CommitterWins h aborts
// itself instead. The returned ok is false if h is no longer running on
// entry or aborted itself during the access; the value is then meaningless
// and h has not been registered.
func (m *Memory) SpecLoad(a Addr, h Handle) (v uint64, ok bool) {
	w, id, s := m.at(a)
	s.mu.Lock()
	if ok = m.register(s, id, h); ok {
		v = *w
	}
	s.mu.Unlock()
	return v, ok
}

// register is SpecLoad's conflict resolution and registration. Callers must
// hold s.mu.
func (m *Memory) register(s *stripe, id uint64, h Handle) bool {
	if !h.Running() {
		return false
	}
	for i := range s.mons {
		e := &s.mons[i]
		if e.line != id || e.h == h || !e.writer || !e.h.Running() {
			continue
		}
		if m.cfg.Policy == CommitterWins {
			h.TryAbort(AbortConflict)
			return false
		}
		e.h.TryAbort(AbortConflict)
	}
	m.addMonitor(s, monEntry{h: h, line: id})
	return true
}

// SpecReload performs a speculative load from a line h already monitors (as
// reader or writer), without taking the stripe lock.
//
// While h is registered and running no other running transaction writes the
// line (SpecDeclareWrite resolved that conflict one way or the other), and
// every agent that changes one of its words — Store, CAS, FetchAdd, CommitTxn
// — aborts h under the stripe lock before it stores. So a load that returned
// a changed word is followed by Running() == false: whenever ok is true, v is
// the value the word has held since h registered. ok is false, and v
// meaningless, if h has been aborted.
func (m *Memory) SpecReload(a Addr, h Handle) (v uint64, ok bool) {
	v = atomic.LoadUint64(&m.words[a])
	return v, h.Running()
}

// SpecDeclareWrite records h as a speculative writer of a's line. The value
// itself is buffered by the transaction and only reaches memory at CommitTxn.
//
// Any other active monitor of the line (reader or writer) conflicts: a
// speculative write needs the line exclusively. Resolution follows the
// configured policy. If h already monitors the line as a reader, its entry is
// upgraded in place rather than duplicated. Returns false if h is no longer
// running or aborted itself.
func (m *Memory) SpecDeclareWrite(a Addr, h Handle) bool {
	_, id, s := m.at(a)
	s.mu.Lock()
	ok := m.declareWrite(s, id, h)
	s.mu.Unlock()
	return ok
}

// declareWrite is SpecDeclareWrite on a resolved line. Callers must hold s.mu.
func (m *Memory) declareWrite(s *stripe, id uint64, h Handle) bool {
	if !h.Running() {
		return false
	}
	if m.cfg.Policy == CommitterWins && hasOtherActiveMonitor(s, id, h) {
		h.TryAbort(AbortConflict)
		return false
	}
	abortMonitors(s, id, h, AbortConflict)
	for i := range s.mons {
		if e := &s.mons[i]; e.line == id && e.h == h {
			e.writer = true
			return true
		}
	}
	m.addMonitor(s, monEntry{h: h, line: id, writer: true})
	return true
}

// WriteEntry is one buffered speculative write, applied at CommitTxn.
type WriteEntry struct {
	Addr Addr
	Val  uint64
}

// CommitTxn atomically publishes the transaction's buffered writes and marks
// it committed.
//
// footprint must contain every line h is registered on — reads and writes —
// in any order, duplicates allowed; CommitTxn sorts it in place into the
// canonical lock order (stripe, then line). writes may be in any order and
// must lie on footprint lines. The method:
//
//  1. locks every distinct stripe of the footprint in that order (one total
//     order ⇒ no deadlock against other commits, and single-line operations
//     cannot interleave),
//  2. re-checks that h is still running (an abort that raced in loses here),
//  3. aborts every other monitor of each written line — a reader that saw
//     pre-commit values of this write set is necessarily still registered and
//     dies here, which is what makes the publication all-or-nothing,
//  4. applies the writes,
//  5. transitions h to committed and unregisters it from all lines.
//
// It returns true if the commit happened, false if h had been aborted.
func (m *Memory) CommitTxn(h CommitterHandle, footprint []uint64, writes []WriteEntry) bool {
	for _, w := range writes {
		_ = &m.words[w.Addr] // an out-of-range write panics here, before any lock is taken
	}
	slices.SortFunc(footprint, lockOrder)
	for i, id := range footprint {
		if firstOfStripe(footprint, i) {
			m.stripeOf(id).mu.Lock()
		}
	}
	committed := false
	if h.Running() {
		for _, w := range writes {
			id := m.LineOf(w.Addr)
			abortMonitors(m.stripeOf(id), id, h, AbortConflict)
		}
		for _, w := range writes {
			atomic.StoreUint64(&m.words[w.Addr], w.Val)
		}
		committed = h.TryCommit()
	}
	if committed {
		for _, id := range footprint {
			removeMonitor(m.stripeOf(id), id, h)
		}
	}
	for i, id := range footprint {
		if firstOfStripe(footprint, i) {
			m.stripeOf(id).mu.Unlock()
		}
	}
	return committed
}

// firstOfStripe reports whether sorted[i] is the first line of its stripe in
// a footprint in lock order, where lines sharing a stripe are adjacent.
func firstOfStripe(sorted []uint64, i int) bool {
	return i == 0 || sorted[i-1]&stripeMask != sorted[i]&stripeMask
}

// lockOrder is the canonical order CommitTxn locks a footprint in: by stripe,
// so that lines sharing a stripe are adjacent and the stripe is locked once,
// then by line.
func lockOrder(a, b uint64) int {
	return cmp.Or(cmp.Compare(a&stripeMask, b&stripeMask), cmp.Compare(a, b))
}

// Unregister removes h from the monitor sets of the given lines. Aborted
// transactions call it during cleanup; it is idempotent.
func (m *Memory) Unregister(h Handle, lineIDs []uint64) {
	for _, id := range lineIDs {
		s := m.stripeOf(id)
		s.mu.Lock()
		removeMonitor(s, id, h)
		s.mu.Unlock()
	}
}

// removeMonitor drops every entry of h on line id from s. Callers must hold
// s.mu.
func removeMonitor(s *stripe, id uint64, h Handle) {
	s.mons = slices.DeleteFunc(s.mons, func(e monEntry) bool { return e.line == id && e.h == h })
}

// MonitorCount returns the number of registered monitor entries on the line
// containing a. It exists for tests and diagnostics.
func (m *Memory) MonitorCount(a Addr) int {
	_, id, s := m.at(a)
	s.mu.Lock()
	n := 0
	for _, e := range s.mons {
		if e.line == id {
			n++
		}
	}
	s.mu.Unlock()
	return n
}
