package containers

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"rhtm"
)

func newSys(words int) *rhtm.System {
	return rhtm.MustNewSystem(rhtm.DefaultConfig(words))
}

func TestRBTreePopulateAndValidate(t *testing.T) {
	s := newSys(1 << 18)
	tree := NewRBTree(s)
	keys := make([]uint64, 0, 1000)
	for i := 1; i <= 1000; i++ {
		keys = append(keys, uint64(i*7))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
	})
	tree.Populate(keys)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	got := tree.Keys()
	if len(got) != len(keys) {
		t.Fatalf("tree has %d keys, want %d", len(got), len(keys))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("in-order traversal not sorted")
	}
}

func TestRBTreeInsertDeleteOracle(t *testing.T) {
	s := newSys(1 << 20)
	tree := NewRBTree(s)
	tx := SetupTx(s)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 4000; op++ {
		key := uint64(rng.Intn(300) + 1)
		switch rng.Intn(3) {
		case 0:
			val := rng.Uint64()
			fresh := tree.Insert(tx, key, val)
			_, existed := oracle[key]
			if fresh == existed {
				t.Fatalf("op %d: Insert(%d) fresh=%v, oracle existed=%v", op, key, fresh, existed)
			}
			oracle[key] = val
		case 1:
			removed := tree.Delete(tx, key)
			_, existed := oracle[key]
			if removed != existed {
				t.Fatalf("op %d: Delete(%d) = %v, oracle existed=%v", op, key, removed, existed)
			}
			delete(oracle, key)
		default:
			v, okT := tree.Lookup(tx, key)
			w, okO := oracle[key]
			if okT != okO || (okT && v != w) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v, oracle %d,%v", op, key, v, okT, w, okO)
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
	if got := len(tree.Keys()); got != len(oracle) {
		t.Fatalf("tree size %d, oracle %d", got, len(oracle))
	}
}

func TestRBTreeConstOpsDoNotChangeStructure(t *testing.T) {
	s := newSys(1 << 16)
	tree := NewRBTree(s)
	keys := []uint64{5, 2, 8, 1, 3, 7, 9, 4, 6}
	tree.Populate(keys)
	before := tree.Keys()
	tx := SetupTx(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		k := uint64(rng.Intn(12) + 1)
		tree.ConstLookup(tx, k)
		tree.ConstUpdate(tx, k, rng.Uint64(), rng)
	}
	after := tree.Keys()
	if len(before) != len(after) {
		t.Fatalf("Const ops changed tree size: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Const ops changed tree keys")
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeConstLookupFindsExactly(t *testing.T) {
	s := newSys(1 << 14)
	tree := NewRBTree(s)
	tree.Populate([]uint64{10, 20, 30})
	tx := SetupTx(s)
	rng := rand.New(rand.NewSource(3))
	for _, k := range []uint64{10, 20, 30} {
		if !tree.ConstLookup(tx, k) {
			t.Fatalf("ConstLookup(%d) = false, want true", k)
		}
		if !tree.ConstUpdate(tx, k, 1, rng) {
			t.Fatalf("ConstUpdate(%d) = false, want true", k)
		}
	}
	if tree.ConstLookup(tx, 15) {
		t.Fatal("ConstLookup(15) = true, want false")
	}
	if tree.ConstUpdate(tx, 15, 1, rng) {
		t.Fatal("ConstUpdate(15) = true for absent key")
	}
}

func TestRBTreeZeroKeyPanics(t *testing.T) {
	s := newSys(1 << 12)
	tree := NewRBTree(s)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(0) did not panic")
		}
	}()
	tree.Insert(SetupTx(s), 0, 0)
}

func TestRBTreeConcurrentMixedOps(t *testing.T) {
	s := newSys(1 << 20)
	tree := NewRBTree(s)
	seed := make([]uint64, 0, 128)
	for i := 1; i <= 128; i++ {
		seed = append(seed, uint64(i*10))
	}
	tree.Populate(seed)
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	const workers, ops = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := eng.NewThread()
		rng := rand.New(rand.NewSource(int64(w + 100)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(1500) + 1)
				var err error
				switch rng.Intn(4) {
				case 0:
					err = th.Atomic(func(tx rhtm.Tx) error {
						tree.Insert(tx, key, key)
						return nil
					})
				case 1:
					err = th.Atomic(func(tx rhtm.Tx) error {
						tree.Delete(tx, key)
						return nil
					})
				default:
					err = th.Atomic(func(tx rhtm.Tx) error {
						tree.Lookup(tx, key)
						return nil
					})
				}
				if err != nil {
					t.Errorf("op: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invalid after concurrent ops: %v", err)
	}
}

func TestRBTreeConcurrentConstWorkload(t *testing.T) {
	// The paper's workload: lookups and constant updates over a fixed tree,
	// concurrently, under every headline engine. The structure must be
	// byte-identical afterwards except dummy fields.
	s := newSys(1 << 20)
	tree := NewRBTree(s)
	keys := make([]uint64, 0, 512)
	for i := 1; i <= 512; i++ {
		keys = append(keys, uint64(i))
	}
	tree.Populate(keys)
	before := tree.Keys()
	engines := []rhtm.Engine{
		rhtm.NewRH1(s, rhtm.DefaultRH1Options()),
		rhtm.NewTL2(s),
	}
	for _, eng := range engines {
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			th := eng.NewThread()
			rng := rand.New(rand.NewSource(int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 80; i++ {
					key := uint64(rng.Intn(512) + 1)
					err := th.Atomic(func(tx rhtm.Tx) error {
						if i%5 == 0 {
							tree.ConstUpdate(tx, key, rng.Uint64(), rng)
						} else {
							tree.ConstLookup(tx, key)
						}
						return nil
					})
					if err != nil {
						t.Errorf("%s: %v", eng.Name(), err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	after := tree.Keys()
	if len(before) != len(after) {
		t.Fatal("constant workload changed the tree")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// traceTx records every access of the transaction it wraps as a hash of
// (load or store, address) pairs. Loaded and stored values are not hashed.
type traceTx struct {
	rhtm.Tx
	h             hash.Hash64
	loads, stores int
}

func (r *traceTx) record(kind byte, a rhtm.Addr) {
	var b [9]byte
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], uint64(a))
	r.h.Write(b[:])
}

func (r *traceTx) Load(a rhtm.Addr) uint64 {
	r.loads++
	r.record('L', a)
	return r.Tx.Load(a)
}

func (r *traceTx) Store(a rhtm.Addr, v uint64) {
	r.stores++
	r.record('S', a)
	r.Tx.Store(a, v)
}

// TestConstTreeTrace pins the simulated cost of the paper's constant tree:
// the heap layout Populate leaves and the exact sequence of addresses that
// ConstLookup, ConstUpdate and Lookup touch over it, for present and absent
// keys. Any change to the node layout, the tree's shape after Populate or
// the descents moves the hash.
func TestConstTreeTrace(t *testing.T) {
	const nodes = 4096
	s := newSys(1 << 18)
	tree := NewRBTree(s)
	keys := make([]uint64, nodes)
	for i := range keys {
		keys[i] = uint64(2 * (i + 1)) // odd keys are absent
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
	})
	tree.Populate(keys)
	if next := s.MustAlloc(1); next != 131112 {
		t.Errorf("next allocation after Populate at %d, want 131112", next)
	}

	tx := &traceTx{Tx: SetupTx(s), h: fnv.New64a()}
	rng := rand.New(rand.NewSource(2))
	hits := 0
	for i := 0; i < 2000; i++ {
		key := uint64(rng.Intn(2*nodes+16) + 1)
		var found bool
		switch rng.Intn(3) {
		case 0:
			found = tree.ConstLookup(tx, key)
		case 1:
			found = tree.ConstUpdate(tx, key, rng.Uint64(), rng)
		default:
			var v uint64
			v, found = tree.Lookup(tx, key)
			if found && v != key {
				t.Fatalf("Lookup(%d) = %d, want the key", key, v)
			}
		}
		if found != (key%2 == 0 && key <= 2*nodes) {
			t.Fatalf("op %d: key %d found=%v", i, key, found)
		}
		if found {
			hits++
		}
	}
	const (
		wantHash   = 0x10dada03fe299577
		wantLoads  = 135816
		wantStores = 2925
		wantHits   = 993
	)
	if got := tx.h.Sum64(); got != wantHash || tx.loads != wantLoads || tx.stores != wantStores || hits != wantHits {
		t.Errorf("trace hash %#x, %d loads, %d stores, %d hits; want %#x, %d, %d, %d",
			got, tx.loads, tx.stores, hits, uint64(wantHash), wantLoads, wantStores, wantHits)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
