// Package tl2 implements the TL2 software transactional memory of Dice,
// Shalev and Shavit (DISC 2006), the paper's STM baseline and the style of
// its all-software fallback.
//
// TL2 here is word-based over the shared stripe metadata of a sys.System:
// each stripe has a version word whose low bit is a lock bit. Transactions
// read the global version clock at start, validate on every read that the
// location's stripe version is unlocked and no newer than the start version
// (with a version-load / data-load / version-reload sandwich), buffer writes,
// and at commit lock the write set, revalidate the read set, write back, and
// release the locks to the next clock version. The clock follows the GV6
// discipline by default (advance on abort only).
//
// The package owns that software transaction (Txn) — internal/core runs its
// slow paths on the same type — and, as the engine, only the order of TL2's
// own commit and its retry loop.
package tl2

import (
	"math/rand"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

// Engine is a TL2 STM over a System.
type Engine struct {
	engine.Registry
}

// New creates a TL2 engine on s.
func New(s *sys.System) *Engine { return &Engine{engine.Registry{Sys: s}} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "TL2" }

// NewThread implements engine.Engine.
func (e *Engine) NewThread() engine.Thread {
	t := &Thread{}
	id := e.Register(&t.Worker)
	t.Rng = rand.New(rand.NewSource(int64(id)*2654435761 + 1))
	t.Init(e.Sys, id, &t.Stats)
	return t
}

// Thread is a per-worker TL2 context. Not safe for concurrent use.
type Thread struct {
	engine.Worker
	Txn
}

// Atomic implements engine.Thread.
func (t *Thread) Atomic(fn func(tx engine.Tx) error) error {
	defer t.Publish()
	return t.RunSoft(fn, (*tl2Tx)(t))
}

// tl2Tx adapts Thread to engine.SWPath; Begin, ReadOnly, Aborted and Trim
// are the embedded Txn's. A distinct type keeps the Tx methods off the
// Thread API.
type tl2Tx Thread

// Commit implements engine.SWPath, the TL2 commit: lock write set, validate
// read set, write back, release.
func (tx *tl2Tx) Commit() bool {
	t := (*Thread)(tx)
	for _, w := range t.Writes.Entries {
		if !t.Lock(t.sys.VersionAddr(w.Addr)) {
			return false
		}
	}
	if !t.Validate() {
		t.Restore()
		return false
	}
	next := sys.PackVersion(t.sys.Clock.Next())
	for _, w := range t.Writes.Entries {
		t.sys.Mem.Store(w.Addr, w.Val)
	}
	t.Release(next)
	return true
}

// Load implements engine.Tx. A read of the transaction's own write is not a
// memory read and is not counted as one.
func (tx *tl2Tx) Load(a memsim.Addr) uint64 {
	t := (*Thread)(tx)
	if v, own := t.Writes.Get(a); own {
		return v
	}
	t.Stats.Reads++
	return t.Read(a)
}

// Store implements engine.Tx.
func (tx *tl2Tx) Store(a memsim.Addr, v uint64) {
	t := (*Thread)(tx)
	t.Stats.Writes++
	t.Writes.Put(a, v)
}

// Unsupported implements engine.Tx; software transactions execute protected
// instructions natively, so this is a no-op.
func (tx *tl2Tx) Unsupported() {}
