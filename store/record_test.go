package store

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
)

// countingTx wraps a transaction and records what a body loads: how many
// words, and on how many distinct cache lines.
type countingTx struct {
	rhtm.Tx
	lineOf    func(rhtm.Addr) uint64
	loadCalls int
	lines     map[uint64]bool
}

func (c *countingTx) Load(a rhtm.Addr) uint64 {
	c.loadCalls++
	c.lines[c.lineOf(a)] = true
	return c.Tx.Load(a)
}

// countCompares swaps st's data index for one whose comparator counts its
// calls — one per node a descent visits. Call before the first Put.
func countCompares(st *Store, calls *int) {
	st.idx = containers.NewOrderedTree(st.sys, func(tx rhtm.Tx, key []byte, rec rhtm.Addr, from int) (int, int) {
		*calls++
		return compareKey(tx, key, rec, from)
	})
}

// TestDescentCost pins what one level of an index descent reads: one child
// pointer and one key word, on the record's own line. The tied first word
// ("user000" here) is read again only at the levels before the walk has
// passed a record on each side — until then one bound is open and proves
// nothing about the prefix. With the key in a block of its own behind an
// entry behind a node (the layout before records) a level cost 6 loads on 3
// lines: a Get at depth 12 among these keys made 82 loads on 38 lines. With
// eight-byte words and the length in the locator it cost 4 loads (child link,
// tied first word, locator, deciding word): 4*depth + 10, 58 on 15 lines.
func TestDescentCost(t *testing.T) {
	const n = 4096
	s := newSys(1 << 20)
	st := New(s, Options{ArenaWords: 2 * n * RecordFootprintWords(12, 64)})
	var depth, open int
	var passedLeft, passedRight bool
	st.idx = containers.NewOrderedTree(s, func(tx rhtm.Tx, key []byte, rec rhtm.Addr, from int) (int, int) {
		depth++
		if !passedLeft || !passedRight {
			open++
		}
		c, same := compareKey(tx, key, rec, from)
		passedLeft, passedRight = passedLeft || c > 0, passedRight || c < 0
		return c, same
	})
	setup := containers.SetupTx(s)
	value := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < n; i++ {
		if err := st.Put(setup, []byte(fmt.Sprintf("user%08d", i*7919%n)), value); err != nil {
			t.Fatal(err)
		}
	}
	deepest, loads, levels := 0, 0, 0
	for i := 0; i < n; i += 61 {
		tx := &countingTx{Tx: setup, lineOf: s.Internal().Mem.LineOf, lines: map[uint64]bool{}}
		depth, open, passedLeft, passedRight = 0, 0, false, false
		if v, ok := st.Get(tx, []byte(fmt.Sprintf("user%08d", i))); !ok || !bytes.Equal(v, value) {
			t.Fatalf("Get(user%08d) = %q, %v", i, v, ok)
		}
		deepest = max(deepest, depth)
		loads, levels = loads+tx.loadCalls, levels+depth
		// A level is a child link and a key word, and an open one the tied
		// first word too. Beyond the levels: the root cell, the record's
		// locator, and the value block's length and 8 words on 2 lines —
		// less the found record's child link, which is not followed.
		if maxLoads := 2*depth + open + 10; tx.loadCalls > maxLoads {
			t.Errorf("Get(user%08d) at depth %d (%d levels open) made %d loads, want <= %d", i, depth, open, tx.loadCalls, maxLoads)
		}
		if maxLines := depth + 3; len(tx.lines) > maxLines {
			t.Errorf("Get(user%08d) at depth %d read %d lines, want <= %d", i, depth, len(tx.lines), maxLines)
		}
	}
	t.Logf("%d levels: %d loads, %.2f a level", levels, loads, float64(loads)/float64(levels))
	if deepest < 12 {
		t.Errorf("deepest probed key at depth %d: %d keys should reach 12", deepest, n)
	}
}

// TestRecordFootprint holds the arena sizing the benchmark and the harness
// derive from RecordFootprintWords at or under what the layout before records
// (key block + 4-word entry + 5-word index node + value block, each rounded
// to its size class) consumed, for every key length a workload uses — except
// where a key word's seven bytes cost a size class: an 8-byte key needs two
// key words, so its record grows from 8 words to 16, and a 64-byte key needs
// ten, so its record grows from 16 to 32.
func TestRecordFootprint(t *testing.T) {
	// Key block, entry and node by key words 0..8: 1<<classOf(1+w) + 4 + 8.
	oldKeyPart := []int{13, 14, 16, 16, 20, 20, 20, 20, 28}
	grown := map[int]int{8: 16 - 14, 64: 32 - 28}
	for k := 0; k <= 64; k++ {
		for _, v := range []int{0, 8, 56, 64, 100, 1000} {
			old := oldKeyPart[(k+7)/8] + 1<<classOf(blockWords(v))
			if got, want := RecordFootprintWords(k, v), old+grown[k]; got > want || grown[k] > 0 && got != want {
				t.Errorf("RecordFootprintWords(%d, %d) = %d, want at most %d (the layout before records: %d)", k, v, got, want, old)
			}
		}
	}
	if got := RecordFootprintWords(12, 64); got != 32 {
		t.Errorf("RecordFootprintWords(12, 64) = %d, want 32: bench/ sizes its arenas by it", got)
	}
}
