package containers

import (
	"fmt"
	"math/rand"

	"rhtm"
)

// Red-black tree node layout, in words. Words rbHeader.. are an OrderedTree
// header (left, right, parent, color), and every link — the root cell and
// each child and parent word — holds the address of a node's header, not of
// the node. The ten dummy words reproduce the paper's Constant Red-Black Tree
// (§3.1): rb-lookup makes ten dummy shared reads per visited node and
// rb-update writes dummy values, so transactions pay realistic
// cache-coherence costs without mutating the structure.
const (
	rbKey    = 0
	rbHeader = 1
	rbValue  = rbHeader + OTHeaderWords
	rbDummy0 = rbValue + 1
	// RBNodeWords is the allocation size of one tree node.
	RBNodeWords = 16
)

const rbDummyWords = RBNodeWords - rbDummy0

const (
	red   = 0
	black = 1
)

// rbBase returns the address of the node whose header is at h.
func rbBase(h rhtm.Addr) rhtm.Addr { return h - rbHeader }

// RBTree is a transactional red-black tree keyed by uint64. The zero key is
// reserved; Insert rejects it. Its descent compares uint64 keys directly;
// linking, rebalancing and unlinking (CLRS ch. 13) are OrderedTree's, which
// never calls a comparator for them.
type RBTree struct {
	tree OrderedTree
}

// NewRBTree allocates an empty tree on s. The root cell is a plain one-word
// allocation: every node's address, and so every cache line the paper's
// workload conflicts on, follows from it.
func NewRBTree(s *rhtm.System) *RBTree {
	return &RBTree{tree: OrderedTree{sys: s, root: s.MustAlloc(1)}}
}

// Populate inserts the given keys (value = key) non-transactionally. Call
// only during single-threaded setup.
func (t *RBTree) Populate(keys []uint64) {
	tx := SetupTx(t.tree.sys)
	for _, k := range keys {
		t.Insert(tx, k, k)
	}
}

// --- the paper's Constant operations ---

// ConstLookup is the paper's rb-lookup(key): a standard traversal that makes
// ten dummy shared reads per node visited. Returns whether the key exists.
func (t *RBTree) ConstLookup(tx rhtm.Tx, key uint64) bool {
	n := rhtm.Addr(tx.Load(t.tree.root))
	for n != rhtm.NilAddr {
		a := rbBase(n)
		for i := 0; i < rbDummyWords; i++ {
			_ = tx.Load(a + rbDummy0 + rhtm.Addr(i))
		}
		k := tx.Load(a + rbKey)
		if key == k {
			return true
		}
		n = rhtm.Addr(tx.Load(n + toward(key < k)))
	}
	return false
}

// ConstUpdate is the paper's rb-update(key, value): traverse to the node
// with the given key (or the leaf where the search ends), write the dummy
// value into the node and its two children, then climb toward the root a
// random number of levels — with diminishing probability, as rotations
// would — making the same fake triplet modifications. The structure
// (pointers, keys) is never touched. Returns whether the key was found.
func (t *RBTree) ConstUpdate(tx rhtm.Tx, key, value uint64, rng *rand.Rand) bool {
	cur, found, _ := t.find(tx, key)
	if cur == rhtm.NilAddr {
		return false
	}
	for {
		t.touchTriplet(tx, cur, value)
		parent := rhtm.Addr(tx.Load(cur + otParent))
		if parent == rhtm.NilAddr || rng.Intn(2) == 0 {
			break
		}
		cur = parent
	}
	return found
}

// touchTriplet writes the dummy value into a node and its present children,
// mimicking the write footprint of a rotation around the node.
func (t *RBTree) touchTriplet(tx rhtm.Tx, n rhtm.Addr, value uint64) {
	tx.Store(rbBase(n)+rbDummy0, value)
	for s := rhtm.Addr(otLeft); s <= otRight; s++ {
		if c := rhtm.Addr(tx.Load(n + s)); c != rhtm.NilAddr {
			tx.Store(rbBase(c)+rbDummy0, value)
		}
	}
}

// find descends toward key. It returns the header of key's node and
// found=true, or else the last node visited (nil for an empty tree) and the
// side of it key would hang on.
func (t *RBTree) find(tx rhtm.Tx, key uint64) (n rhtm.Addr, found bool, side rhtm.Addr) {
	parent := rhtm.NilAddr
	n = rhtm.Addr(tx.Load(t.tree.root))
	for n != rhtm.NilAddr {
		k := tx.Load(rbBase(n) + rbKey)
		if key == k {
			return n, true, side
		}
		parent, side = n, toward(key < k)
		n = rhtm.Addr(tx.Load(n + side))
	}
	return parent, false, side
}

// --- real operations ---

// Lookup returns the value stored under key.
func (t *RBTree) Lookup(tx rhtm.Tx, key uint64) (uint64, bool) {
	n, found, _ := t.find(tx, key)
	if !found {
		return 0, false
	}
	return tx.Load(rbBase(n) + rbValue), true
}

// Insert adds key→value, returning false if the key already exists (the
// value is then updated in place). The new node is allocated from the
// system heap before any transactional store; if the enclosing transaction
// retries, the allocation is reused only by chance, so a long abort storm
// can leak heap words — an accepted simulator trade-off, documented here.
func (t *RBTree) Insert(tx rhtm.Tx, key, value uint64) bool {
	if key == 0 {
		panic("containers: RBTree key 0 is reserved")
	}
	n, found, side := t.find(tx, key)
	if found {
		tx.Store(rbBase(n)+rbValue, value)
		return false
	}
	node := t.tree.sys.MustAlloc(RBNodeWords)
	tx.Store(node+rbKey, key)
	tx.Store(node+rbValue, value)
	t.tree.link(tx, n, side, node+rbHeader)
	return true
}

// Delete removes key, returning false if it was absent. The node is
// unlinked by transplant, so no other entry's key or value moves. Its words
// are intentionally not returned to the heap: a free inside a transaction
// that later aborts would hand the block to another thread while it is
// still reachable. A transactional reclamation scheme (e.g. epoch deferral
// keyed on commit) is out of scope for the reproduction.
func (t *RBTree) Delete(tx rhtm.Tx, key uint64) bool {
	n, found, _ := t.find(tx, key)
	if found {
		t.tree.Unlink(tx, n)
	}
	return found
}

// --- validation (setup/verification contexts only) ---

// Validate checks the red-black invariants and that the keys ascend in
// order, using raw memory access. Only call while no transactions are in
// flight. It returns a descriptive error on the first violation.
func (t *RBTree) Validate() error {
	if err := t.tree.Validate(); err != nil {
		return err
	}
	keys := t.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("rbtree: key %d follows %d in order", keys[i], keys[i-1])
		}
	}
	return nil
}

// Keys returns all keys in order using raw access (setup/verification only).
func (t *RBTree) Keys() []uint64 {
	tx := SetupTx(t.tree.sys)
	var out []uint64
	t.tree.Scan(tx, nil, nil, func(n rhtm.Addr) bool {
		out = append(out, tx.Load(rbBase(n)+rbKey))
		return true
	})
	return out
}
