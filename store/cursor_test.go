package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/wal"
)

// cursorOver opens a cursor on a plain Store for one shard, a Sharded
// otherwise — the two implementations of the one mechanism.
type cursorOver interface {
	Put(tx rhtm.Tx, key, value []byte) error
	Write(tx rhtm.Tx, op wal.Op) (wal.Op, error)
	Cursor(tx rhtm.Tx, start, end []byte, hint int) *Cursor
}

func newCursorOver(s *rhtm.System, shards int) cursorOver {
	if shards == 1 {
		return New(s, Options{ArenaWords: 1 << 14})
	}
	return NewSharded(s, shards, Options{ArenaWords: 1 << 14})
}

// drain reads a cursor to its end.
func drain(c *Cursor) (keys, vals []string) {
	for c.Next() {
		keys = append(keys, string(c.Key()))
		vals = append(vals, string(c.Value()))
	}
	return keys, vals
}

// TestCursorMatchesSortedReference drains cursors over random key sets —
// keys that are byte-prefixes of one another included, so the last‖0x00
// resume is exercised at every read boundary — and compares with a sorted
// reference, for every shard count, bound shape and hint.
func TestCursorMatchesSortedReference(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for _, nkeys := range []int{0, 2, 40, 300} { // 2 keys over 8 shards: most shards empty
			t.Run(fmt.Sprintf("shards%d/keys%d", shards, nkeys), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards*1000 + nkeys)))
				s := newSys(1 << 20)
				st := newCursorOver(s, shards)
				tx := containers.SetupTx(s)
				ref := map[string]string{}
				for len(ref) < nkeys {
					// A three-letter alphabet with 0x00 in it makes prefixes,
					// and successors of prefixes, common.
					k := make([]byte, 1+rng.Intn(5))
					for i := range k {
						k[i] = "\x00ab"[rng.Intn(3)]
					}
					v := fmt.Sprintf("v%d", len(ref))
					if err := st.Put(tx, k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					ref[string(k)] = v
				}
				sorted := make([]string, 0, len(ref))
				for k := range ref {
					sorted = append(sorted, k)
				}
				sort.Strings(sorted)

				bounds := [][2][]byte{{nil, nil}, {[]byte("a"), nil}, {nil, []byte("b")},
					{[]byte("a\x00"), []byte("ab")}, {[]byte("b"), []byte("a")}}
				for _, b := range bounds {
					var want []string
					for _, k := range sorted {
						if (b[0] == nil || k >= string(b[0])) && (b[1] == nil || k < string(b[1])) {
							want = append(want, k)
						}
					}
					for _, hint := range []int{0, 1, 7, 100} {
						keys, vals := drain(st.Cursor(tx, b[0], b[1], hint))
						if fmt.Sprint(keys) != fmt.Sprint(want) {
							t.Fatalf("[%q,%q) hint %d:\n got  %q\n want %q", b[0], b[1], hint, keys, want)
						}
						for i, k := range keys {
							if vals[i] != ref[k] {
								t.Fatalf("key %q: value %q, want %q", k, vals[i], ref[k])
							}
						}
					}
				}
			})
		}
	}
}

// TestCursorSeesOwnWrites: a cursor opened after writes in the same
// transaction observes them — the record layer's cardinality probe
// (table.valueAbsent) scans for a value right after deleting its last entry.
func TestCursorSeesOwnWrites(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := newSys(1 << 20)
		eng := rhtm.NewTL2(s)
		st := newCursorOver(s, shards)
		th := eng.NewThread()
		if err := th.Atomic(func(tx rhtm.Tx) error {
			for i := 0; i < 20; i++ {
				if err := st.Put(tx, []byte(fmt.Sprintf("k%02d", i)), []byte("old")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := th.Atomic(func(tx rhtm.Tx) error {
			del(st, tx, []byte("k03"))
			if err := st.Put(tx, []byte("k03x"), []byte("new")); err != nil {
				return err
			}
			if err := st.Put(tx, []byte("k05"), []byte("new")); err != nil {
				return err
			}
			keys, vals := drain(st.Cursor(tx, []byte("k03"), []byte("k06"), 1))
			if got, want := fmt.Sprint(keys, vals), "[k03x k04 k05] [new old new]"; got != want {
				t.Errorf("%d shards: cursor after own writes read %s, want %s", shards, got, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// accessesOf runs fn as one transaction on a fresh thread and returns the
// simulated accesses it cost.
func accessesOf(t *testing.T, eng rhtm.Engine, fn func(tx rhtm.Tx)) uint64 {
	t.Helper()
	count := func() uint64 {
		s := eng.Snapshot()
		return s.Reads + s.Writes + s.MetadataReads + s.MetadataWrites
	}
	before := count()
	if err := eng.NewThread().Atomic(func(tx rhtm.Tx) error { fn(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	return count() - before
}

// TestScanComparesBoundsOnce pins the index scan's bound handling: a node at
// or above start proves its right subtree is, a node below end proves its
// left subtree is, and the bound is not compared there again. Draining 32
// entries from the middle of 4,096 — two index scans, the read that fills
// the buffer and the resume that finds the range exhausted — then compares
// keys only along each scan's descents to its two bounds, not once more per
// entry yielded. Comparing both bounds at every visited node made over two
// per entry on top of the descents (110 compares and 2,502 accesses here),
// and with the key in a block of its own as well this drain cost 3,189
// accesses at the commit before. Keys packed eight bytes a word, with the
// length in the locator, cost 1,944: a compare loaded the tied first word,
// then the locator, then the second word; self-delimiting seven-byte key
// words drop the locator load.
func TestScanComparesBoundsOnce(t *testing.T) {
	const n = 4096
	s := newSys(1 << 20)
	st := New(s, Options{ArenaWords: 2 * n * RecordFootprintWords(12, 64)})
	compares := 0
	countCompares(st, &compares)
	setup := containers.SetupTx(s)
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	for i := 0; i < n; i++ {
		if err := st.Put(setup, key(i*7919%n), bytes.Repeat([]byte("v"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	height := 0
	for i := 0; i < n; i++ {
		compares = 0
		has(st, setup, key(i))
		height = max(height, compares)
	}
	compares = 0
	got := accessesOf(t, rhtm.NewTL2(s), func(tx rhtm.Tx) {
		if keys, _ := drain(st.Cursor(tx, key(2000), key(2032), 0)); len(keys) != 32 {
			t.Fatalf("drained %d entries, want 32", len(keys))
		}
	})
	t.Logf("32 of %d entries, height %d: %d accesses, %d key compares", n, height, got, compares)
	if compares > 2*2*height {
		t.Errorf("draining 32 entries made %d key compares, over the %d of four descents of a height-%d tree",
			compares, 2*2*height, height)
	}
	if got != 1800 {
		t.Errorf("draining 32 entries cost %d accesses, pinned at 1800", got)
	}
}

// TestCursorReadsWhatItYields pins the cursor's simulated cost: a range
// scattered over 8 shards is read about once, not once per shard.
func TestCursorReadsWhatItYields(t *testing.T) {
	const n = 256
	load := func(shards int) (rhtm.Engine, cursorOver) {
		s := newSys(1 << 20)
		st := newCursorOver(s, shards)
		tx := containers.SetupTx(s)
		for i := 0; i < n; i++ {
			if err := st.Put(tx, []byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("v"), 40)); err != nil {
				t.Fatal(err)
			}
		}
		return rhtm.NewTL2(s), st
	}
	engOne, one := load(1)
	engEight, eight := load(8)

	drainCost := func(eng rhtm.Engine, st cursorOver) uint64 {
		return accessesOf(t, eng, func(tx rhtm.Tx) {
			if keys, _ := drain(st.Cursor(tx, nil, nil, 0)); len(keys) != n {
				t.Fatalf("drained %d entries, want %d", len(keys), n)
			}
		})
	}
	costOne, costEight := drainCost(engOne, one), drainCost(engEight, eight)
	t.Logf("drain %d entries: %d accesses in one Store, %d over 8 shards (%.2fx)",
		n, costOne, costEight, float64(costEight)/float64(costOne))
	if costEight*4 > costOne*5 {
		t.Errorf("draining %d entries over 8 shards cost %d accesses, over 1.25x the %d of one Store",
			n, costEight, costOne)
	}

	// A limit-1 probe must read one entry per shard and no more: the cost of
	// asking each shard for its first entry, which is what finding the
	// smallest key over hash-partitioned shards takes.
	sh := eight.(*Sharded)
	start := []byte("key-0100")
	floor := accessesOf(t, engEight, func(tx rhtm.Tx) {
		for _, st := range sh.shards {
			st.ScanLimitRev(tx, start, nil, 1, func(_, _ []byte, _ uint64) bool { return true })
		}
	})
	probe := accessesOf(t, engEight, func(tx rhtm.Tx) {
		c := sh.Cursor(tx, start, nil, 1)
		if !c.Next() || string(c.Key()) != "key-0100" {
			t.Fatalf("probe found %q", c.Key())
		}
	})
	if probe > floor {
		t.Errorf("limit-1 probe over 8 shards cost %d accesses, one first-entry read per shard costs %d", probe, floor)
	}
}
