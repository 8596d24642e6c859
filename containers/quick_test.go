package containers

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rhtm"
)

// Property: for any operation seed, a red-black tree driven by random
// insert/delete/lookup agrees with a map oracle and keeps its invariants.
func TestQuickRBTreeOracle(t *testing.T) {
	f := func(seed int64) bool {
		s := newSys(1 << 18)
		tree := NewRBTree(s)
		tx := SetupTx(s)
		oracle := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			key := uint64(rng.Intn(64) + 1)
			switch rng.Intn(3) {
			case 0:
				val := rng.Uint64()
				if tree.Insert(tx, key, val) == hasKey(oracle, key) {
					return false // fresh-insert flag must negate prior existence
				}
				oracle[key] = val
			case 1:
				if tree.Delete(tx, key) != hasKey(oracle, key) {
					return false
				}
				delete(oracle, key)
			default:
				v, ok := tree.Lookup(tx, key)
				w, okO := oracle[key]
				if ok != okO || (ok && v != w) {
					return false
				}
			}
		}
		if tree.Validate() != nil {
			return false
		}
		return len(tree.Keys()) == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func hasKey(m map[uint64]uint64, k uint64) bool {
	_, ok := m[k]
	return ok
}

// Property: a sorted list stays sorted and duplicate-free under any
// insert sequence.
func TestQuickSortedListInvariant(t *testing.T) {
	f := func(seed int64) bool {
		s := newSys(1 << 16)
		l := NewSortedList(s)
		tx := SetupTx(s)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 200; op++ {
			key := uint64(rng.Intn(40) + 1)
			l.Insert(tx, key, key)
		}
		keys := listKeys(l)
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: hash-table membership matches a set oracle for any op sequence.
func TestQuickHashTableOracle(t *testing.T) {
	f := func(seed int64) bool {
		s := newSys(1 << 16)
		ht := NewHashTable(s, 16)
		tx := SetupTx(s)
		oracle := map[uint64]bool{}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 200; op++ {
			key := uint64(rng.Intn(96) + 1)
			if rng.Intn(2) == 0 {
				if ht.Insert(tx, key, key) == oracle[key] {
					return false
				}
				oracle[key] = true
			} else if ht.ConstQuery(tx, key) != oracle[key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: an intrusive tree never moves an entry. Over any insert/delete
// sequence the address passed to Insert is what Lookup returns for that key
// until its own Delete, Delete returns exactly that address, and the
// red-black invariants hold after every step. (Delete once copied the
// successor's item into the doomed node; with the node being the caller's
// record that would silently re-home a key.)
func TestQuickOrderedTreeNodeIdentity(t *testing.T) {
	type step struct {
		del bool
		key uint64
	}
	run := func(steps []step) bool {
		s := newSys(1 << 16)
		tree := NewOrderedTree(s, u64Cmp)
		tx := SetupTx(s)
		oracle := map[uint64]rhtm.Addr{}
		for _, st := range steps {
			if st.del {
				node, ok := treeDelete(tree, tx, u64Key(st.key))
				if want, had := oracle[st.key]; ok != had || node != want {
					t.Logf("Delete(%d) = %d,%v, inserted as %d,%v", st.key, node, ok, want, had)
					return false
				}
				delete(oracle, st.key)
			} else {
				node := newNode(s, st.key)
				existing, inserted := tree.Insert(tx, u64Key(st.key), node)
				if want, had := oracle[st.key]; inserted == had || (had && existing != want) {
					t.Logf("Insert(%d) = %d,%v, oracle %d,%v", st.key, existing, inserted, want, had)
					return false
				}
				if inserted {
					oracle[st.key] = node
				}
			}
			if err := tree.Validate(); err != nil {
				t.Logf("after %+v: %v", st, err)
				return false
			}
			for k, want := range oracle {
				if got, ok := tree.Lookup(tx, u64Key(k)); !ok || got != want {
					t.Logf("after %+v: Lookup(%d) = %d,%v, inserted as %d", st, k, got, ok, want)
					return false
				}
			}
		}
		return tree.Len(tx) == len(oracle)
	}

	// The shapes transplant distinguishes, on the tree 4(2(1,3),6(5,7)) and
	// its remnants: the root with two children whose successor is deeper
	// than its right child (4), the root whose successor is its right child
	// (4 once 5 is gone), an inner node likewise (2), a leaf (1), a node with
	// one child (2 once 1 is gone), and every node down to the last root.
	build := []step{{key: 4}, {key: 2}, {key: 6}, {key: 1}, {key: 3}, {key: 5}, {key: 7}}
	for _, dels := range [][]uint64{{4}, {5, 4}, {2}, {1}, {1, 2}, {4, 5, 6, 7, 1, 2, 3}} {
		steps := build
		for _, k := range dels {
			steps = append(steps[:len(steps):len(steps)], step{del: true, key: k})
		}
		if !run(steps) {
			t.Fatalf("delete %v from 1..7 broke node identity", dels)
		}
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]step, 300)
		for i := range steps {
			steps[i] = step{del: rng.Intn(2) == 0, key: uint64(rng.Intn(48) + 1)}
		}
		return run(steps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
