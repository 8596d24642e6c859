package memsim

import (
	"fmt"
	"sync"
)

// Heap is a word allocator over a Region. Containers allocate their nodes
// from a Heap so that every field of every node is a simulated word subject
// to conflict detection.
//
// The allocator is a size-segregated free list over a bump pointer: Free
// returns blocks to a per-size list and Alloc reuses them before bumping.
// Allocation is line-aligned when the block is at least a line long, so that
// two nodes never share a line unless they are smaller than a line (matching
// how a real slab allocator interacts with false sharing).
type Heap struct {
	mem *Memory
	reg Region

	mu   sync.Mutex
	next Addr
	free map[int][]Addr
}

// NewHeap creates a Heap over a fresh region of the given size.
func NewHeap(m *Memory, words int) (*Heap, error) {
	reg, err := m.AllocRegion(words)
	if err != nil {
		return nil, err
	}
	return &Heap{
		mem:  m,
		reg:  reg,
		next: reg.Base,
		free: make(map[int][]Addr),
	}, nil
}

// Region returns the heap's backing region. The TM metadata layout (stripe
// versions, read masks) is sized from it.
func (h *Heap) Region() Region { return h.reg }

// Alloc returns the address of a fresh zeroed block of n words.
func (h *Heap) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memsim: alloc size %d must be positive", n)
	}
	h.mu.Lock()
	if list := h.free[n]; len(list) > 0 {
		a := list[len(list)-1]
		h.free[n] = list[:len(list)-1]
		h.mu.Unlock()
		h.zero(a, n)
		return a, nil
	}
	a := h.next
	if n >= h.mem.cfg.WordsPerLine {
		lw := Addr(h.mem.cfg.WordsPerLine)
		a = (a + lw - 1) &^ (lw - 1)
	}
	end := a + Addr(n)
	if end > h.reg.Base+Addr(h.reg.Size) {
		h.mu.Unlock()
		return 0, fmt.Errorf("memsim: heap exhausted: need %d words, %d remain",
			n, int64(h.reg.Base)+int64(h.reg.Size)-int64(h.next))
	}
	h.next = end
	h.mu.Unlock()
	return a, nil
}

// MustAlloc is Alloc for setup code.
func (h *Heap) MustAlloc(n int) Addr {
	a, err := h.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Free returns a block of n words (previously obtained from Alloc with the
// same n) to the allocator.
func (h *Heap) Free(a Addr, n int) {
	h.mu.Lock()
	h.free[n] = append(h.free[n], a)
	h.mu.Unlock()
}

// zero clears a block with plain stores so that recycled memory does not leak
// stale values into fresh nodes. Zeroing uses Store (not Poke): a recycled
// block may still be monitored by doomed speculative readers, which must be
// snooped out exactly as real coherence traffic would.
func (h *Heap) zero(a Addr, n int) {
	for i := 0; i < n; i++ {
		h.mem.Store(a+Addr(i), 0)
	}
}
