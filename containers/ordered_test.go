package containers

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"rhtm"
)

// testNodeWords is the tree's header plus the one payload word the tests'
// comparators read.
const testNodeWords = OTHeaderWords + 1

// newNode allocates a node from the system heap carrying payload.
func newNode(s *rhtm.System, payload uint64) rhtm.Addr {
	n := s.MustAlloc(testNodeWords)
	s.Poke(n+OTHeaderWords, payload)
	return n
}

// payloadOf reads a node's payload word.
func payloadOf(tx rhtm.Tx, n rhtm.Addr) uint64 { return tx.Load(n + OTHeaderWords) }

// u64Cmp orders nodes whose payload is their key: it is compared against
// the probe's 8-byte big-endian encoding, so byte lexicographic order equals
// numeric order. A key is one word, so two keys that differ share none.
func u64Cmp(tx rhtm.Tx, key []byte, node rhtm.Addr, _ int) (int, int) {
	var probe [8]byte
	copy(probe[:], key)
	return cmp.Compare(binary.BigEndian.Uint64(probe[:]), payloadOf(tx, node)), 0
}

func u64Key(k uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b[:]
}

// treeDelete unlinks the node under key, the way store/ removes a record:
// Lookup, then Unlink.
func treeDelete(tree *OrderedTree, tx rhtm.Tx, key []byte) (rhtm.Addr, bool) {
	node, ok := tree.Lookup(tx, key)
	if ok {
		tree.Unlink(tx, node)
	}
	return node, ok
}

// TestOrderedTreeRootOwnsLine: every operation loads the root cell, so it
// gets a cache line of its own — a write to a neighbouring word must not
// abort every reader of the tree.
func TestOrderedTreeRootOwnsLine(t *testing.T) {
	s := newSys(1 << 12)
	before := s.MustAlloc(1)
	tree := NewOrderedTree(s, u64Cmp)
	after := s.MustAlloc(1)
	mem := s.Internal().Mem
	if l := mem.LineOf(tree.root); l == mem.LineOf(before) || l == mem.LineOf(after) {
		t.Fatalf("root cell %d shares a line with a neighbour (%d, %d)", tree.root, before, after)
	}
}

func TestOrderedTreeInsertDeleteOracle(t *testing.T) {
	s := newSys(1 << 20)
	tree := NewOrderedTree(s, u64Cmp)
	tx := SetupTx(s)
	oracle := map[uint64]bool{}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 4000; op++ {
		key := uint64(rng.Intn(300) + 1)
		switch rng.Intn(3) {
		case 0:
			node := newNode(s, key)
			_, inserted := tree.Insert(tx, u64Key(key), node)
			if inserted == oracle[key] {
				t.Fatalf("op %d: Insert(%d) inserted=%v, oracle existed=%v", op, key, inserted, oracle[key])
			}
			if !inserted {
				s.Free(node, testNodeWords)
			}
			oracle[key] = true
		case 1:
			node, removed := treeDelete(tree, tx, u64Key(key))
			if removed != oracle[key] {
				t.Fatalf("op %d: Delete(%d) = %v, oracle existed=%v", op, key, removed, oracle[key])
			}
			if removed {
				if got := payloadOf(tx, node); got != key {
					t.Fatalf("op %d: Delete(%d) returned the node of %d", op, key, got)
				}
				s.Free(node, testNodeWords)
			}
			delete(oracle, key)
		default:
			node, ok := tree.Lookup(tx, u64Key(key))
			if ok != oracle[key] || (ok && payloadOf(tx, node) != key) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v, oracle %v", op, key, node, ok, oracle[key])
			}
		}
		if op%500 == 0 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	tree.Scan(tx, nil, nil, func(n rhtm.Addr) bool { got = append(got, payloadOf(tx, n)); return true })
	want := make([]uint64, 0, len(oracle))
	for k := range oracle {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("scan returned %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOrderedTreeScanRange(t *testing.T) {
	s := newSys(1 << 18)
	tree := NewOrderedTree(s, u64Cmp)
	tx := SetupTx(s)
	for k := uint64(1); k <= 100; k++ {
		tree.Insert(tx, u64Key(k*2), newNode(s, k*2)) // even keys 2..200
	}
	cases := []struct {
		start, end uint64 // 0 = unbounded
		want       []uint64
	}{
		{10, 20, []uint64{10, 12, 14, 16, 18}}, // end exclusive
		{9, 15, []uint64{10, 12, 14}},          // bounds between keys
		{0, 6, []uint64{2, 4}},
		{196, 0, []uint64{196, 198, 200}},
		{300, 0, nil},
	}
	for _, c := range cases {
		var start, end []byte
		if c.start != 0 {
			start = u64Key(c.start)
		}
		if c.end != 0 {
			end = u64Key(c.end)
		}
		var got []uint64
		tree.Scan(tx, start, end, func(n rhtm.Addr) bool { got = append(got, payloadOf(tx, n)); return true })
		if len(got) != len(c.want) {
			t.Fatalf("Scan[%d,%d) = %v, want %v", c.start, c.end, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Scan[%d,%d) = %v, want %v", c.start, c.end, got, c.want)
			}
		}
	}
	// Early stop.
	n := 0
	tree.Scan(tx, nil, nil, func(rhtm.Addr) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early-stop scan visited %d items, want 3", n)
	}
}

// byteCmp is a comparator over byte keys held in a Go side table (a node's
// payload is its index), each byte one word. It fails t when the descent
// claims a shared prefix the two keys do not share, and counts the key bytes
// it reads.
func byteCmp(t *testing.T, keys [][]byte, reads *int) NodeCompare {
	return func(tx rhtm.Tx, key []byte, node rhtm.Addr, from int) (int, int) {
		k := keys[payloadOf(tx, node)]
		if from > len(key) || from > len(k) || !bytes.Equal(key[:from], k[:from]) {
			t.Fatalf("compare of %q with %q told they share %d bytes", key, k, from)
		}
		i := from
		for i < len(key) && i < len(k) && key[i] == k[i] {
			i++
		}
		*reads += i - from + 1
		return bytes.Compare(key, k), i
	}
}

func TestOrderedTreeLexicographic(t *testing.T) {
	// Variable-length byte keys with the node's payload an index into a Go
	// side table; verifies the comparator contract with real varlen keys.
	keys := [][]byte{
		[]byte(""), []byte("a"), []byte("ab"), []byte("abc"), []byte("b"),
		[]byte("ba"), []byte("z"), []byte("za"), {0x00}, {0x00, 0x01}, {0xff},
	}
	s := newSys(1 << 16)
	var reads int
	tree := NewOrderedTree(s, byteCmp(t, keys, &reads))
	tx := SetupTx(s)
	perm := rand.New(rand.NewSource(3)).Perm(len(keys))
	for _, i := range perm {
		tree.Insert(tx, keys[i], newNode(s, uint64(i)))
	}
	var got [][]byte
	tree.Scan(tx, nil, nil, func(n rhtm.Addr) bool { got = append(got, keys[payloadOf(tx, n)]); return true })
	want := make([][]byte, len(keys))
	copy(want, keys)
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestOrderedTreeDescentSkipsSharedPrefix: keys under a long common prefix,
// probed present and absent, inside the key range and past both ends. Every
// comparison starts inside the prefix the probe shares with the node (byteCmp
// checks it), the descent finds what the oracle holds, and once the walk has
// passed a node on each side — so both bounds hold the common prefix — no
// comparison reads that prefix again.
func TestOrderedTreeDescentSkipsSharedPrefix(t *testing.T) {
	const n, prefix = 2000, 40
	rng := rand.New(rand.NewSource(11))
	key := func(first int) []byte {
		return append(bytes.Repeat([]byte{'p'}, prefix), byte(first), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	var keys [][]byte
	present := map[string]bool{}
	for len(keys) < n {
		if k := key(1 + rng.Intn(4)); !present[string(k)] {
			present[string(k)] = true
			keys = append(keys, k)
		}
	}
	s := newSys(1 << 20)
	var reads int
	tree := NewOrderedTree(s, byteCmp(t, keys, &reads))
	tx := SetupTx(s)
	for i, k := range keys {
		if _, inserted := tree.Insert(tx, k, newNode(s, uint64(i))); !inserted {
			t.Fatalf("Insert(%x) found a duplicate", k)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	var passedLeft, passedRight bool
	levels, naive := 0, 0
	counting := NewOrderedTree(s, func(tx rhtm.Tx, key []byte, node rhtm.Addr, from int) (int, int) {
		if passedLeft && passedRight && from < prefix {
			t.Fatalf("probe %x bounded on both sides starts a compare at byte %d, inside the %d-byte prefix", key, from, prefix)
		}
		c, same := tree.cmp(tx, key, node, from)
		passedLeft, passedRight = passedLeft || c > 0, passedRight || c < 0
		levels++
		naive += same + 1
		return c, same
	})
	counting.root = tree.root
	// A probe past either end of the range is never bounded on that side,
	// so it reads the prefix at every level; one inside reads it at the few
	// levels before the walk first turns each way.
	for _, first := range []int{0, 5, 1, 2, 3, 4} {
		reads, levels, naive = 0, 0, 0
		for i := 0; i < 1000; i++ {
			k := key(first)
			passedLeft, passedRight = false, false
			node, ok := counting.Lookup(tx, k)
			if ok != present[string(k)] || ok && !bytes.Equal(keys[payloadOf(tx, node)], k) {
				t.Fatalf("Lookup(%x) = %d, %v; oracle holds it: %v", k, node, ok, present[string(k)])
			}
		}
		t.Logf("byte %d after the prefix: %d levels read %d key bytes (%.1f a level), %d from the first byte", first, levels, reads, float64(reads)/float64(levels), naive)
		if inRange := first >= 1 && first <= 4; inRange && reads*2 > naive {
			t.Errorf("byte %d after the prefix: the descent read %d key bytes, over half the %d of comparing each level from the first byte", first, reads, naive)
		}
	}
}

// TestOrderedTreeValidateReportsCorruption: every broken invariant, a link
// outside the heap included, is an error from Validate, never a panic.
func TestOrderedTreeValidateReportsCorruption(t *testing.T) {
	cases := map[string]func(s *rhtm.System, root rhtm.Addr){
		"link outside the heap": func(s *rhtm.System, root rhtm.Addr) { s.Poke(root+otLeft, 1<<40) },
		"wrong parent": func(s *rhtm.System, root rhtm.Addr) {
			s.Poke(rhtm.Addr(s.Peek(root+otLeft))+otParent, s.Peek(root+otRight))
		},
		"red root": func(s *rhtm.System, root rhtm.Addr) { s.Poke(root+otColor, red) },
		"black height": func(s *rhtm.System, root rhtm.Addr) {
			l := rhtm.Addr(s.Peek(root + otLeft))
			s.Poke(l+otColor, 1-s.Peek(l+otColor))
		},
	}
	for name, corrupt := range cases {
		s := newSys(1 << 12)
		tree := NewOrderedTree(s, u64Cmp)
		tx := SetupTx(s)
		for k := uint64(1); k <= 7; k++ {
			tree.Insert(tx, u64Key(k), newNode(s, k))
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: fresh tree: %v", name, err)
		}
		corrupt(s, rhtm.Addr(s.Peek(tree.root)))
		if err := tree.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupt tree", name)
		}
	}
}

// wordKeyWords is the length, in words, of every key of the structure trace's
// OrderedTree: one byte of the key a word, stored after the node's header.
const wordKeyWords = 5

// wordKeyCmp compares a probe against a key held in simulated memory, one
// word per byte, from word from on: the comparator shape of store's records,
// so that the loads descend's shared-prefix skip saves are the loads the
// trace does not see.
func wordKeyCmp(tx rhtm.Tx, key []byte, node rhtm.Addr, from int) (int, int) {
	for i := from; i < wordKeyWords; i++ {
		p, s := uint64(key[i]), tx.Load(node+OTHeaderWords+rhtm.Addr(i))
		if p != s {
			return cmp.Compare(p, s), i
		}
	}
	return 0, wordKeyWords
}

// TestOrderedTreeStructureTrace pins the access stream of the tree's
// structural operations, which TestConstTreeTrace does not reach: linking
// and insertFixup, Unlink, transplant and deleteFixup, each rotation on both
// sides, and the range traversal. Two seeded mixes run, each on a traced
// setup transaction of its own: Insert/Delete over RBTree, and
// Insert/Delete/Scan over an OrderedTree whose five-word keys share prefixes
// of every length, so the words descend skips are part of the hash. Loaded
// and stored values are not hashed; the address sequence is, so any change
// to which link a rotation or fixup reads or writes, or in what order, moves
// it.
func TestOrderedTreeStructureTrace(t *testing.T) {
	s := newSys(1 << 20)
	rng := rand.New(rand.NewSource(5))
	check := func(mix string, tx *traceTx, wantHash uint64, wantLoads, wantStores int) {
		t.Helper()
		if got := tx.h.Sum64(); got != wantHash || tx.loads != wantLoads || tx.stores != wantStores {
			t.Errorf("%s: trace hash %#x, %d loads, %d stores; want %#x, %d, %d",
				mix, got, tx.loads, tx.stores, wantHash, wantLoads, wantStores)
		}
	}

	tx := &traceTx{Tx: SetupTx(s), h: fnv.New64a()}
	rb := NewRBTree(s)
	oracle := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(3000) + 1)
		if rng.Intn(2) == 0 {
			if rb.Insert(tx, key, key) == oracle[key] {
				t.Fatalf("RBTree op %d: Insert(%d) disagrees with the oracle", i, key)
			}
			oracle[key] = true
		} else {
			if rb.Delete(tx, key) != oracle[key] {
				t.Fatalf("RBTree op %d: Delete(%d) disagrees with the oracle", i, key)
			}
			delete(oracle, key)
		}
	}
	if err := rb.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(rb.Keys()); got != len(oracle) {
		t.Fatalf("RBTree holds %d keys, oracle %d", got, len(oracle))
	}
	check("RBTree Insert/Delete", tx, 0x94cd7127c140a446, 516615, 103323)

	tx = &traceTx{Tx: SetupTx(s), h: fnv.New64a()}
	tree := NewOrderedTree(s, wordKeyCmp)
	key := func() []byte {
		return []byte{7, 7, byte(rng.Intn(3)), byte(rng.Intn(8)), byte(rng.Intn(64))}
	}
	present := map[string]rhtm.Addr{}
	scanned := 0
	for i := 0; i < 20000; i++ {
		k := key()
		switch rng.Intn(5) {
		case 0, 1:
			node := s.MustAlloc(OTHeaderWords + wordKeyWords)
			for j, b := range k {
				s.Poke(node+OTHeaderWords+rhtm.Addr(j), uint64(b))
			}
			got, inserted := tree.Insert(tx, k, node)
			if old, ok := present[string(k)]; inserted == ok || ok && got != old {
				t.Fatalf("OrderedTree op %d: Insert(%v) = %d, %v; oracle %d, %v", i, k, got, inserted, old, ok)
			}
			if !inserted {
				s.Free(node, OTHeaderWords+wordKeyWords)
			}
			present[string(k)] = got
		case 2, 3:
			node, removed := treeDelete(tree, tx, k)
			if old, ok := present[string(k)]; removed != ok || ok && node != old {
				t.Fatalf("OrderedTree op %d: Delete(%v) = %d, %v; oracle %d, %v", i, k, node, removed, old, ok)
			}
			if removed {
				s.Free(node, OTHeaderWords+wordKeyWords)
			}
			delete(present, string(k))
		default:
			end, limit := key(), rng.Intn(6)
			var prev []byte
			n := 0
			tree.Scan(tx, k, end, func(node rhtm.Addr) bool {
				got := make([]byte, wordKeyWords)
				for j := range got {
					got[j] = byte(s.Peek(node + OTHeaderWords + rhtm.Addr(j)))
				}
				if bytes.Compare(got, k) < 0 || bytes.Compare(got, end) >= 0 || prev != nil && bytes.Compare(prev, got) >= 0 {
					t.Fatalf("OrderedTree op %d: Scan[%v, %v) visited %v after %v", i, k, end, got, prev)
				}
				prev = got
				n++
				return limit == 0 || n < limit
			})
			scanned += n
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(SetupTx(s)); got != len(present) {
		t.Fatalf("OrderedTree holds %d keys, oracle %d", got, len(present))
	}
	if scanned != 80178 {
		t.Errorf("the scans visited %d nodes, want 80178", scanned)
	}
	check("OrderedTree Insert/Delete/Scan", tx, 0x8fd886eb00fc89ba, 875845, 68790)
}
