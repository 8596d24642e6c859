package engine

import (
	"math/rand"
	"sync"

	"rhtm/internal/htm"
	"rhtm/internal/sys"
)

// Worker is the part of a per-thread context every engine shares: its slot
// in the engine's Registry, its private counters and its random source.
// Engine threads embed it, and per-access code bumps Stats directly.
type Worker struct {
	ID    int        // registry slot; RH2's read-mask bit and every lock word
	Rng   *rand.Rand // backoff, mix and injection draws; each engine seeds its own
	Stats Stats      // unsynchronized; merged by Registry.Snapshot

	mu        sync.Mutex
	published Stats // Stats as of the last Publish; what Registry.Live reads
}

// Publish makes the counters visible to Registry.Live. Engines defer it in
// Atomic: the hot path keeps its unsynchronized counters and pays one
// uncontended lock and one copy per whole transaction, on a line no other
// worker writes.
func (w *Worker) Publish() {
	w.mu.Lock()
	w.published = w.Stats
	w.mu.Unlock()
}

// Registry is the one thread table. An engine embeds it: it assigns thread
// ids against the System's MaxThreads and implements Engine.Snapshot and
// Engine.Live.
type Registry struct {
	Sys *sys.System
	// Slow, if set, is the engine whose threads run this engine's software
	// path (TL2 under Standard HyTM and Phased TM). Those attempts count
	// and flush into its threads, so Snapshot and Live add its totals.
	Slow Engine

	mu      sync.Mutex
	workers []*Worker
}

// Register assigns w the next thread id and returns it. It panics with
// ErrTooManyThreads once Sys.MaxThreads workers exist.
func (r *Registry) Register(w *Worker) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.workers) >= r.Sys.MaxThreads() {
		panic(ErrTooManyThreads)
	}
	w.ID = len(r.workers)
	r.workers = append(r.workers, w)
	return w.ID
}

// RegisterHW is Register for a thread with a hardware path: it also gives w
// its transaction context on Sys and its injected-abort percentage.
func (r *Registry) RegisterHW(w *HWWorker, injectPct int) int {
	w.Txn, w.InjectPct = htm.NewTxn(r.Sys.Mem, r.Sys.Config().HTM), injectPct
	return r.Register(&w.Worker)
}

// Snapshot implements Engine.
func (r *Registry) Snapshot() Stats {
	r.mu.Lock()
	var s Stats
	for _, w := range r.workers {
		s.Add(w.Stats)
	}
	r.mu.Unlock()
	if r.Slow != nil {
		s.Add(r.Slow.Snapshot())
	}
	return s
}

// Live implements Engine.
func (r *Registry) Live() Stats {
	r.mu.Lock()
	var s Stats
	for _, w := range r.workers {
		w.mu.Lock()
		s.Add(w.published)
		w.mu.Unlock()
	}
	r.mu.Unlock()
	if r.Slow != nil {
		s.Add(r.Slow.Live())
	}
	return s
}
