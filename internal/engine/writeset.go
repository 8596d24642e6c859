package engine

import (
	"rhtm/internal/memsim"
	"rhtm/internal/scratch"
)

// WriteSet is a software transaction's redo log: its stores in program
// order, with an index so the transaction reads its own writes and a second
// store to a word overwrites the first. Reset before first use.
type WriteSet struct {
	Entries []memsim.WriteEntry
	idx     map[memsim.Addr]int
}

// Reset empties the set, keeping its storage.
func (w *WriteSet) Reset() {
	if w.idx == nil {
		w.idx = make(map[memsim.Addr]int, 32)
	}
	w.Entries = w.Entries[:0]
	clear(w.idx)
}

// Trim lets go of the set's storage once its entries are over
// scratch.Bound. The index goes with them: a map never shrinks, and
// clearing one costs its peak size.
func (w *WriteSet) Trim() {
	if scratch.Over(w.Entries) {
		w.Entries, w.idx = nil, nil
	}
}

// Get returns the value buffered for a, if any.
func (w *WriteSet) Get(a memsim.Addr) (v uint64, ok bool) {
	if i, hit := w.idx[a]; hit {
		return w.Entries[i].Val, true
	}
	return 0, false
}

// Put buffers a store.
func (w *WriteSet) Put(a memsim.Addr, v uint64) {
	if i, hit := w.idx[a]; hit {
		w.Entries[i].Val = v
		return
	}
	w.idx[a] = len(w.Entries)
	w.Entries = append(w.Entries, memsim.WriteEntry{Addr: a, Val: v})
}
