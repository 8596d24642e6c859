package store

import (
	"errors"
	"fmt"

	"rhtm"
)

// numClasses bounds block sizes: the largest class is 1<<(numClasses-1)
// words (256 KiB of payload), far above any sane value size.
const numClasses = 16

// ErrArenaFull is returned by allocation when the arena's bump region is
// exhausted and no free block of the right class exists. Returning it from
// a transaction body aborts the transaction cleanly, leaving the store
// unchanged.
var ErrArenaFull = errors.New("store: arena exhausted")

// ErrTooLarge is returned (wrapped, with the sizes) by allocation when the
// requested block exceeds the largest size class — a key or value too big
// for the store, as opposed to a store that is merely full.
var ErrTooLarge = errors.New("store: block exceeds the largest size class")

// Arena is a transactional size-class free-list allocator over a region of
// simulated memory. All allocator state — the bump pointer and one
// free-list head per power-of-two size class — lives in simulated words and
// is manipulated exclusively through the enclosing transaction, so an
// aborted transaction rolls back its allocations and frees along with its
// data writes. That is what makes reclamation safe here when it is not in
// the bare containers (see RBTree.Delete): a block freed by a transaction
// that later aborts was never actually freed.
//
// The word at offset 0 of a free block holds the address of the next free
// block of its class (0 terminates the list). Allocated blocks are handed
// out with unspecified contents; callers initialize every word they read.
type Arena struct {
	sys   *rhtm.System
	base  rhtm.Addr // block storage region
	words int
	bump  rhtm.Addr // one word on its own line: address of the next unused block
	heads rhtm.Addr // numClasses words: free-list heads
	ctrs  rhtm.Addr // numClasses words: free words per class (O(1) Stats)
}

// NewArena carves an arena of the given word count out of the system heap.
// Call during single-threaded setup.
func NewArena(s *rhtm.System, words int) *Arena {
	a := &Arena{
		sys:   s,
		bump:  s.MustAllocLines(1),
		heads: s.MustAlloc(numClasses),
		ctrs:  s.MustAlloc(numClasses),
		base:  s.MustAlloc(words),
		words: words,
	}
	s.Poke(a.bump, uint64(a.base))
	return a
}

// reserve bumps the frontier of a fresh arena past n words and returns their
// address: a block outside the size classes, never freed. Setup only.
func (a *Arena) reserve(n int) rhtm.Addr {
	if n > a.words {
		panic(fmt.Sprintf("store: arena of %d words cannot reserve %d", a.words, n))
	}
	a.sys.Poke(a.bump, uint64(a.base)+uint64(n))
	return a.base
}

// classOf returns the size class of an n-word block: the smallest c with
// 1<<c >= n.
func classOf(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// TxAlloc returns a block of at least words simulated words under the
// caller's transaction, reusing a freed block of the same class when one
// exists and bumping the arena frontier otherwise.
func (a *Arena) TxAlloc(tx rhtm.Tx, words int) (rhtm.Addr, error) {
	c := classOf(words)
	if c >= numClasses {
		return 0, fmt.Errorf("store: block of %d words exceeds the largest class (%d words): %w",
			words, 1<<(numClasses-1), ErrTooLarge)
	}
	headAddr := a.heads + rhtm.Addr(c)
	if head := tx.Load(headAddr); head != uint64(rhtm.NilAddr) {
		tx.Store(headAddr, tx.Load(rhtm.Addr(head)))
		ctr := a.ctrs + rhtm.Addr(c)
		tx.Store(ctr, tx.Load(ctr)-uint64(1)<<c)
		return rhtm.Addr(head), nil
	}
	p := tx.Load(a.bump)
	size := uint64(1) << c
	if p+size > uint64(a.base)+uint64(a.words) {
		return 0, ErrArenaFull
	}
	tx.Store(a.bump, p+size)
	return rhtm.Addr(p), nil
}

// TxFree pushes the block onto its class's free list under the caller's
// transaction.
func (a *Arena) TxFree(tx rhtm.Tx, addr rhtm.Addr, words int) {
	c := classOf(words)
	headAddr := a.heads + rhtm.Addr(c)
	tx.Store(addr, tx.Load(headAddr))
	tx.Store(headAddr, uint64(addr))
	ctr := a.ctrs + rhtm.Addr(c)
	tx.Store(ctr, tx.Load(ctr)+uint64(1)<<c)
}

// ArenaStats describes an arena's occupancy at one instant. BumpedWords is
// what the frontier has handed out since setup; FreeListWords is the portion
// of that currently idle on the free lists, so LiveWords (the difference) is
// what reachable blocks actually occupy. The gap between LiveWords and the
// payload callers asked for is size-class rounding waste — the quantity the
// ROADMAP's compaction item needs measured.
type ArenaStats struct {
	CapacityWords int
	BumpedWords   int
	FreeListWords int
	LiveWords     int
}

// Stats gathers occupancy counters under tx in O(numClasses): the per-class
// free-word counters are maintained incrementally by TxAlloc/TxFree (the
// counter cells share a conflict footprint with the free-list heads they
// mirror), so Stats costs one load per class instead of one per free block
// and is safe to poll from running workloads.
func (a *Arena) Stats(tx rhtm.Tx) ArenaStats {
	s := ArenaStats{
		CapacityWords: a.words,
		BumpedWords:   int(tx.Load(a.bump) - uint64(a.base)),
	}
	for c := 0; c < numClasses; c++ {
		s.FreeListWords += int(tx.Load(a.ctrs + rhtm.Addr(c)))
	}
	s.LiveWords = s.BumpedWords - s.FreeListWords
	return s
}

// walkFreeWords recounts the free-list words by full traversal — the O(n)
// ground truth the incremental counters must match. Validation only.
func (a *Arena) walkFreeWords(tx rhtm.Tx) int {
	total := 0
	for c := 0; c < numClasses; c++ {
		for n := tx.Load(a.heads + rhtm.Addr(c)); n != uint64(rhtm.NilAddr); n = tx.Load(rhtm.Addr(n)) {
			total += 1 << c
		}
	}
	return total
}
