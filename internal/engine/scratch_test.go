package engine

import (
	"errors"
	"math/rand"
	"testing"

	"rhtm/internal/memsim"
	"rhtm/internal/scratch"
)

// TestWriteSetScratch: Trim drops a write set whose entries grew past
// scratch.Bound, index included, and keeps a smaller one.
func TestWriteSetScratch(t *testing.T) {
	var w WriteSet
	w.Reset()
	for a := memsim.Addr(0); a < 64; a++ {
		w.Put(a, uint64(a))
	}
	w.Trim()
	if w.idx == nil || cap(w.Entries) == 0 {
		t.Fatal("Trim dropped a 64-entry write set, want it kept for reuse")
	}
	for a := memsim.Addr(0); a < scratch.Bound; a++ {
		w.Put(a, uint64(a))
	}
	w.Trim()
	if w.idx != nil || w.Entries != nil {
		t.Fatalf("Trim kept a %d-entry write set (cap %d), want both its entries and index dropped", scratch.Bound, cap(w.Entries))
	}
	w.Reset()
	w.Put(7, 1)
	if v, ok := w.Get(7); !ok || v != 1 {
		t.Fatal("a trimmed write set does not work after Reset")
	}
}

// trimCounter is a software path that commits on its first attempt and
// counts the calls to Trim.
type trimCounter struct {
	ws    WriteSet
	trims int
}

func (p *trimCounter) Load(memsim.Addr) uint64       { return 0 }
func (p *trimCounter) Store(a memsim.Addr, v uint64) { p.ws.Put(a, v) }
func (p *trimCounter) Unsupported()                  {}
func (p *trimCounter) Begin()                        { p.ws.Reset() }
func (p *trimCounter) ReadOnly() bool                { return len(p.ws.Entries) == 0 }
func (p *trimCounter) Commit() bool                  { return true }
func (p *trimCounter) Aborted()                      {}
func (p *trimCounter) Trim()                         { p.trims++ }

// TestRunSoftTrimsScratch: RunSoft calls Trim once per transaction,
// however it ends — read-only commit, commit, or the body's error.
func TestRunSoftTrimsScratch(t *testing.T) {
	w := &Worker{Rng: rand.New(rand.NewSource(1))}
	p := &trimCounter{}
	errBody := errors.New("body")
	bodies := map[string]func(tx Tx) error{
		"read-only": func(tx Tx) error { tx.Load(1); return nil },
		"commit":    func(tx Tx) error { tx.Store(1, 2); return nil },
		"error":     func(tx Tx) error { return errBody },
	}
	for name, fn := range bodies {
		p.trims = 0
		if err := w.RunSoft(fn, p); err != nil && !errors.Is(err, errBody) {
			t.Fatalf("%s: %v", name, err)
		}
		if p.trims != 1 {
			t.Errorf("%s: Trim ran %d times, want 1", name, p.trims)
		}
	}
}
