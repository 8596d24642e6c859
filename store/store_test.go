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

func newSys(words int) *rhtm.System {
	return rhtm.MustNewSystem(rhtm.DefaultConfig(words))
}

// has reports whether key is present, by the index descent alone.
func has(st *Store, tx rhtm.Tx, key []byte) bool {
	_, ok := st.idx.Lookup(tx, key)
	return ok
}

// del removes key through Write and reports whether it was present.
func del(w interface {
	Write(rhtm.Tx, wal.Op) (wal.Op, error)
}, tx rhtm.Tx, key []byte) bool {
	op, _ := w.Write(tx, wal.Op{Kind: wal.OpDelete, Key: key})
	return op.Rev != 0
}

// bumped is how many words the arena's bump frontier has handed out.
func bumped(a *Arena) int { return a.Stats(containers.SetupTx(a.sys)).BumpedWords }

// --- codec ---

func TestCodecRoundTrip(t *testing.T) {
	s := newSys(1 << 14)
	tx := containers.SetupTx(s)
	arena := NewArena(s, 1<<10)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300} {
		b := make([]byte, n)
		rng.Read(b)
		a := s.MustAlloc(blockWords(n))
		writeBytes(tx, a, b)
		got := readBytes(tx, a)
		if !bytes.Equal(got, b) {
			t.Fatalf("len %d: round trip mismatch", n)
		}
		if c, same := compareKey(tx, b, keyRecord(t, arena, b), 0); c != 0 || same != keyWords(n) {
			t.Fatalf("len %d: compareKey(self) = %d sharing %d words, want 0 sharing %d", n, c, same, keyWords(n))
		}
	}
}

func TestCodecCompare(t *testing.T) {
	s := newSys(1 << 14)
	tx := containers.SetupTx(s)
	stored := [][]byte{
		{}, []byte("a"), []byte("ab"), []byte("abc"), []byte("b"),
		{0x00}, {0x00, 0x00}, {0xff, 0x01}, []byte("same-prefix-xxxxxxxxxx1"),
	}
	arena := NewArena(s, 1<<10)
	probes := append([][]byte{[]byte("aa"), []byte("abd"), []byte("same-prefix-xxxxxxxxxx2"), {0xff}}, stored...)
	for _, sv := range stored {
		rec := keyRecord(t, arena, sv)
		for _, p := range probes {
			want := bytes.Compare(p, sv)
			if got, _ := compareKey(tx, p, rec, 0); got != want {
				t.Fatalf("compare(%q, %q) = %d, want %d", p, sv, got, want)
			}
		}
	}
}

// --- arena ---

func TestArenaClassReuse(t *testing.T) {
	s := newSys(1 << 14)
	a := NewArena(s, 1024)
	tx := containers.SetupTx(s)
	b1, err := a.TxAlloc(tx, 5) // class 8
	if err != nil {
		t.Fatal(err)
	}
	a.TxFree(tx, b1, 5)
	b2, err := a.TxAlloc(tx, 7) // same class: must reuse b1
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b1 {
		t.Fatalf("same-class alloc after free returned %d, want reused %d", b2, b1)
	}
	b3, err := a.TxAlloc(tx, 9) // class 16: fresh block
	if err != nil {
		t.Fatal(err)
	}
	if b3 == b1 {
		t.Fatalf("different-class alloc reused freed block")
	}
	if got := bumped(a); got != 8+16 {
		t.Fatalf("BumpedWords = %d, want %d", got, 8+16)
	}
}

func TestArenaExhaustion(t *testing.T) {
	s := newSys(1 << 14)
	a := NewArena(s, 16)
	tx := containers.SetupTx(s)
	if _, err := a.TxAlloc(tx, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TxAlloc(tx, 1); err != ErrArenaFull {
		t.Fatalf("err = %v, want ErrArenaFull", err)
	}
	if _, err := a.TxAlloc(tx, 1<<20); err == ErrArenaFull || err == nil {
		t.Fatalf("oversized alloc err = %v, want class-bound error", err)
	}
}

// TestArenaAbortRollback: an aborted transaction's allocations must roll
// back — the bump pointer and free lists are simulated words, so the
// engine's undo covers them.
func TestArenaAbortRollback(t *testing.T) {
	s := newSys(1 << 14)
	a := NewArena(s, 1024)
	eng := rhtm.NewTL2(s)
	th := eng.NewThread()
	before := bumped(a)
	sentinel := fmt.Errorf("user abort")
	err := th.Atomic(func(tx rhtm.Tx) error {
		if _, err := a.TxAlloc(tx, 64); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := bumped(a); got != before {
		t.Fatalf("aborted alloc moved the bump pointer: %d -> %d", before, got)
	}
}

// TestArenaStatsCountersMatchWalk: Stats reads incrementally maintained
// per-class free-word counters (O(1)); they must agree with a full
// free-list traversal after arbitrary alloc/free churn, including aborted
// transactions (whose counter updates must roll back with the lists).
func TestArenaStatsCountersMatchWalk(t *testing.T) {
	s := newSys(1 << 15)
	a := NewArena(s, 4096)
	eng := rhtm.NewTL2(s)
	th := eng.NewThread()
	rng := rand.New(rand.NewSource(9))
	var live []struct {
		addr  rhtm.Addr
		words int
	}
	sentinel := fmt.Errorf("abort")
	for i := 0; i < 200; i++ {
		abort := rng.Intn(5) == 0
		err := th.Atomic(func(tx rhtm.Tx) error {
			if len(live) > 0 && rng.Intn(2) == 0 {
				b := live[len(live)-1]
				a.TxFree(tx, b.addr, b.words)
				if !abort {
					live = live[:len(live)-1]
				}
			} else {
				w := rng.Intn(40) + 1
				addr, err := a.TxAlloc(tx, w)
				if err != nil {
					return err
				}
				if !abort {
					live = append(live, struct {
						addr  rhtm.Addr
						words int
					}{addr, w})
				}
			}
			if abort {
				return sentinel
			}
			return nil
		})
		if err != nil && err != sentinel {
			t.Fatal(err)
		}
	}
	tx := containers.SetupTx(s)
	st := a.Stats(tx)
	if walked := a.walkFreeWords(tx); walked != st.FreeListWords {
		t.Fatalf("counters say %d free words, walk finds %d", st.FreeListWords, walked)
	}
	if st.LiveWords != st.BumpedWords-st.FreeListWords {
		t.Fatalf("live %d != bumped %d - free %d", st.LiveWords, st.BumpedWords, st.FreeListWords)
	}
}

// --- Store ---

func TestStorePutGetDeleteScan(t *testing.T) {
	s := newSys(1 << 18)
	st := New(s, Options{ArenaWords: 1 << 15})
	tx := containers.SetupTx(s)
	oracle := map[string][]byte{}
	rng := rand.New(rand.NewSource(2))
	for op := 0; op < 3000; op++ {
		key := []byte(fmt.Sprintf("k%03d", rng.Intn(120)))
		switch rng.Intn(4) {
		case 0, 1:
			val := make([]byte, rng.Intn(50))
			rng.Read(val)
			if err := st.Put(tx, key, val); err != nil {
				t.Fatalf("op %d: Put: %v", op, err)
			}
			oracle[string(key)] = val
		case 2:
			got := del(st, tx, key)
			_, want := oracle[string(key)]
			if got != want {
				t.Fatalf("op %d: Delete(%s) = %v, want %v", op, key, got, want)
			}
			delete(oracle, string(key))
		default:
			got, ok := st.Get(tx, key)
			want, wok := oracle[string(key)]
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%s) = %x,%v want %x,%v", op, key, got, ok, want, wok)
			}
		}
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(tx); got != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", got, len(oracle))
	}
	// Full scan must be sorted and match the oracle.
	var keys []string
	st.ScanRev(tx, nil, nil, func(k, v []byte, _ uint64) bool {
		keys = append(keys, string(k))
		if want := oracle[string(k)]; !bytes.Equal(v, want) {
			t.Fatalf("scan %s: value %x, want %x", k, v, want)
		}
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan keys not sorted")
	}
	if len(keys) != len(oracle) {
		t.Fatalf("scan visited %d keys, oracle %d", len(keys), len(oracle))
	}
}

func TestStoreScanRange(t *testing.T) {
	s := newSys(1 << 16)
	st := New(s, Options{ArenaWords: 1 << 14})
	tx := containers.SetupTx(s)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key%02d", i*2))
		if err := st.Put(tx, key, []byte(fmt.Sprintf("v%d", i*2))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	st.ScanRev(tx, []byte("key10"), []byte("key20"), func(k, v []byte, _ uint64) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"key10", "key12", "key14", "key16", "key18"}
	if len(got) != len(want) {
		t.Fatalf("range scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range scan = %v, want %v", got, want)
		}
	}
	// Early stop after 3 entries.
	n := 0
	st.ScanRev(tx, nil, nil, func(k, v []byte, _ uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early-stop scan visited %d, want 3", n)
	}
}

// TestStoreSteadyStateReuse: overwrite and delete/reinsert cycles must not
// grow the arena once the free lists are primed — the allocator really
// recycles.
func TestStoreSteadyStateReuse(t *testing.T) {
	s := newSys(1 << 18)
	st := New(s, Options{ArenaWords: 1 << 14})
	tx := containers.SetupTx(s)
	key := []byte("cycling-key")
	val := make([]byte, 40)
	for i := 0; i < 5; i++ {
		if err := st.Put(tx, key, val); err != nil {
			t.Fatal(err)
		}
		del(st, tx, key)
	}
	after5 := bumped(st.arena)
	for i := 0; i < 200; i++ {
		if err := st.Put(tx, key, val); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			del(st, tx, key)
		}
	}
	if got := bumped(st.arena); got != after5 {
		t.Fatalf("arena grew under steady-state churn: %d -> %d words", after5, got)
	}
}

// --- Sharded ---

func TestShardedBasicsAndMergedScan(t *testing.T) {
	s := newSys(1 << 18)
	sh := NewSharded(s, 4, Options{ArenaWords: 1 << 13})
	tx := containers.SetupTx(s)
	oracle := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("user%04d", i)
		v := fmt.Sprintf("value-%d", i)
		if err := sh.Put(tx, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	if got := len(sh.Snapshot(tx)); got != len(oracle) {
		t.Fatalf("%d entries, want %d", got, len(oracle))
	}
	// Keys must actually spread across shards.
	used := map[int]bool{}
	for k := range oracle {
		used[sh.ShardIndex([]byte(k))] = true
	}
	if len(used) != len(sh.shards) {
		t.Fatalf("keys landed on %d of %d shards", len(used), len(sh.shards))
	}
	// Merged scan is globally sorted despite hash partitioning.
	var keys []string
	for c := sh.Cursor(tx, []byte("user0050"), []byte("user0100"), 0); c.Next(); {
		k, v := c.Key(), c.Value()
		keys = append(keys, string(k))
		if oracle[string(k)] != string(v) {
			t.Fatalf("scan %s: value %q, want %q", k, v, oracle[string(k)])
		}
	}
	if len(keys) != 50 {
		t.Fatalf("range scan visited %d keys, want 50", len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("merged scan keys not sorted")
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The cross-engine conformance battery (enginetest.RunDB) runs from the kv
// package's tests against both this store and the cluster — importing it
// here would cycle through kv.

// TestCrossShardAtomicity moves a key-value pair between two keys pinned to
// different shards while auditors verify it lives in exactly one place.
func TestCrossShardAtomicity(t *testing.T) {
	s := newSys(1 << 17)
	sh := NewSharded(s, 4, Options{ArenaWords: 1 << 13})
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())

	// Find two keys routed to different shards.
	keyA := []byte("home-0")
	var keyB []byte
	for i := 0; ; i++ {
		keyB = []byte(fmt.Sprintf("away-%d", i))
		if sh.ShardIndex(keyB) != sh.ShardIndex(keyA) {
			break
		}
	}
	payload := []byte("the-one-true-value")
	tx := containers.SetupTx(s)
	if err := sh.Put(tx, keyA, payload); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		th := eng.NewThread()
		for i := 0; i < 120; i++ {
			src, dst := keyA, keyB
			if i%2 == 1 {
				src, dst = keyB, keyA
			}
			if err := th.Atomic(func(tx rhtm.Tx) error {
				v, ok := sh.Get(tx, src)
				if !ok {
					return fmt.Errorf("iteration %d: %s missing", i, src)
				}
				del(sh, tx, src)
				return sh.Put(tx, dst, v)
			}); err != nil {
				t.Errorf("move: %v", err)
				return
			}
		}
	}()
	th := eng.NewThread()
	for i := 0; i < 400; i++ {
		if err := th.Atomic(func(tx rhtm.Tx) error {
			_, inA := sh.Get(tx, keyA)
			vB, inB := sh.Get(tx, keyB)
			if inA == inB {
				return fmt.Errorf("audit %d: inA=%v inB=%v", i, inA, inB)
			}
			if inB && !bytes.Equal(vB, payload) {
				return fmt.Errorf("audit %d: payload corrupted: %q", i, vB)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
}
