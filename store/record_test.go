package store

import (
	"bytes"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/containers"
)

// countingTx wraps a transaction and records what a body loads — how many
// words, and on how many distinct cache lines — and where it stores.
type countingTx struct {
	rhtm.Tx
	lineOf    func(rhtm.Addr) uint64
	loadCalls int
	lines     map[uint64]bool
	stores    []rhtm.Addr
}

func (c *countingTx) Load(a rhtm.Addr) uint64 {
	c.loadCalls++
	c.lines[c.lineOf(a)] = true
	return c.Tx.Load(a)
}

func (c *countingTx) Store(a rhtm.Addr, v uint64) {
	c.stores = append(c.stores, a)
	c.Tx.Store(a, v)
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
// pointer and one key word, on the record's own line. Point reads probe the
// directory instead (TestPointCost); the descent is what scans and inserts
// still pay. The tied first word
// ("user000" here) is read again only at the levels before the walk has
// passed a record on each side — until then one bound is open and proves
// nothing about the prefix. With the key in a block of its own behind an
// entry behind a node (the layout before records) a level cost 6 loads on 3
// lines: a Get at depth 12 among these keys made 82 loads on 38 lines. With
// eight-byte words and the length in the locator it cost 4 loads (child link,
// tied first word, locator, deciding word): a Get cost 4*depth + 10, 58 on 15
// lines.
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
		rec, ok := st.idx.Lookup(tx, []byte(fmt.Sprintf("user%08d", i)))
		if k, v, _ := decodeRecord(setup, rec); !ok || string(k) != fmt.Sprintf("user%08d", i) || !bytes.Equal(v, value) {
			t.Fatalf("Lookup(user%08d) = %q → %q, %v", i, k, v, ok)
		}
		deepest = max(deepest, depth)
		loads, levels = loads+tx.loadCalls, levels+depth
		// A level is a child link and a key word, and an open one the tied
		// first word too. Beyond the levels: the root cell, less the found
		// record's child link, which is not followed.
		if maxLoads := 2*depth + open; tx.loadCalls > maxLoads {
			t.Errorf("Lookup(user%08d) at depth %d (%d levels open) made %d loads, want <= %d", i, depth, open, tx.loadCalls, maxLoads)
		}
		if maxLines := depth + 1; len(tx.lines) > maxLines {
			t.Errorf("Lookup(user%08d) at depth %d read %d lines, want <= %d", i, depth, len(tx.lines), maxLines)
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

// TestPointCost pins a point operation on the directory, over the keys of
// TestDescentCost: a probe loads its home slot — rarely a second — and the
// key words it compares, then only the fields the operation needs. A Get of
// a 12-byte key is one slot, two key words, the locator, and the 64-byte
// value block's length and 8 words on 2 lines: 13 loads, where the descent
// alone cost 2*depth + open, about 27 at depth 12.
func TestPointCost(t *testing.T) {
	const n = 4096
	s := newSys(1 << 20)
	st := New(s, Options{ArenaWords: 2 * n * RecordFootprintWords(12, 64)})
	setup := containers.SetupTx(s)
	value := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < n; i++ {
		if err := st.Put(setup, userKey(i*7919%n), value); err != nil {
			t.Fatal(err)
		}
	}
	counting := func() *countingTx {
		return &countingTx{Tx: setup, lineOf: s.Internal().Mem.LineOf, lines: map[uint64]bool{}}
	}
	inDir := func(a rhtm.Addr) bool { return a >= st.dir && a < st.dir+rhtm.Addr(st.slots) }
	var gets, revs, puts int
	for i := 0; i < n; i += 61 {
		key := userKey(i)
		tx := counting()
		if v, ok := st.Get(tx, key); !ok || !bytes.Equal(v, value) {
			t.Fatalf("Get(%s) = %q, %v", key, v, ok)
		}
		if tx.loadCalls > 14 || len(tx.lines) > 5 {
			t.Errorf("Get(%s) made %d loads on %d lines, want <= 14 on <= 5", key, tx.loadCalls, len(tx.lines))
		}
		gets += tx.loadCalls

		tx = counting()
		if _, ok := st.RevOf(tx, key); !ok {
			t.Fatalf("RevOf(%s) missing", key)
		}
		// A slot, two key words and the revision.
		if tx.loadCalls > 5 || len(tx.lines) > 3 {
			t.Errorf("RevOf(%s) made %d loads on %d lines, want <= 5 on <= 3", key, tx.loadCalls, len(tx.lines))
		}
		revs += tx.loadCalls

		tx = counting()
		if err := st.Put(tx, key, value); err != nil {
			t.Fatal(err)
		}
		for _, a := range tx.stores {
			if inDir(a) {
				t.Errorf("overwriting Put(%s) stored directory slot %d", key, a-st.dir)
			}
		}
		// The probe, the locator, the old value's length, and five of the
		// revision clock and event log.
		if tx.loadCalls > 11 {
			t.Errorf("overwriting Put(%s) made %d loads, want <= 11", key, tx.loadCalls)
		}
		puts += tx.loadCalls
	}
	probed := (n + 60) / 61
	t.Logf("per key: Get %.2f loads, RevOf %.2f, overwriting Put %.2f", float64(gets)/float64(probed),
		float64(revs)/float64(probed), float64(puts)/float64(probed))
}
