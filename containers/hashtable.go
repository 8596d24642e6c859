package containers

import "rhtm"

// Hash table node layout, in words. The dummy words carry the paper's
// Constant Hash Table fake updates (§3.3).
const (
	htKey    = 0
	htNext   = 1
	htValue  = 2
	htDummy0 = 3
	// HTNodeWords is the allocation size of one chain node.
	HTNodeWords = 8
)

const htDummyWords = HTNodeWords - htDummy0

// HashTable is a transactional chained hash table keyed by uint64 (key 0
// reserved).
type HashTable struct {
	sys     *rhtm.System
	buckets rhtm.Addr // array of bucket-head words
	nbkt    uint64
}

// NewHashTable allocates a table with nbuckets chains.
func NewHashTable(s *rhtm.System, nbuckets int) *HashTable {
	if nbuckets <= 0 {
		panic("containers: hash table needs at least one bucket")
	}
	return &HashTable{
		sys:     s,
		buckets: s.MustAlloc(nbuckets),
		nbkt:    uint64(nbuckets),
	}
}

// bucketOf returns the bucket-head cell for key, using a Fibonacci hash so
// that sequential keys spread across buckets ("highly distributed nature of
// hash table access", §3.3).
func (h *HashTable) bucketOf(key uint64) rhtm.Addr {
	return h.buckets + rhtm.Addr((key*11400714819323198485)%h.nbkt)
}

// Populate inserts the keys (value = key) non-transactionally during setup.
func (h *HashTable) Populate(keys []uint64) {
	tx := SetupTx(h.sys)
	for _, k := range keys {
		h.Insert(tx, k, k)
	}
}

// --- the paper's Constant operations ---

// ConstQuery is the paper's hash_query(key): walk the chain reading the
// dummy words of each visited node.
func (h *HashTable) ConstQuery(tx rhtm.Tx, key uint64) bool {
	n := tx.Load(h.bucketOf(key))
	for n != uint64(rhtm.NilAddr) {
		a := rhtm.Addr(n)
		for i := 0; i < htDummyWords; i++ {
			_ = tx.Load(a + htDummy0 + rhtm.Addr(i))
		}
		if tx.Load(a+htKey) == key {
			return true
		}
		n = tx.Load(a + htNext)
	}
	return false
}

// ConstUpdate is the paper's hash_update(key, val): query for the key and,
// when found, update the dummy variables inside the node without touching
// the structure.
func (h *HashTable) ConstUpdate(tx rhtm.Tx, key, value uint64) bool {
	n := tx.Load(h.bucketOf(key))
	for n != uint64(rhtm.NilAddr) {
		a := rhtm.Addr(n)
		if tx.Load(a+htKey) == key {
			for i := 0; i < htDummyWords; i++ {
				tx.Store(a+htDummy0+rhtm.Addr(i), value)
			}
			return true
		}
		n = tx.Load(a + htNext)
	}
	return false
}

// --- real operations ---

// Insert adds key→value at the chain head, returning false (and updating in
// place) if the key exists. See RBTree.Insert for the allocation-on-retry
// note.
func (h *HashTable) Insert(tx rhtm.Tx, key, value uint64) bool {
	if key == 0 {
		panic("containers: HashTable key 0 is reserved")
	}
	head := h.bucketOf(key)
	n := tx.Load(head)
	for m := n; m != uint64(rhtm.NilAddr); {
		a := rhtm.Addr(m)
		if tx.Load(a+htKey) == key {
			tx.Store(a+htValue, value)
			return false
		}
		m = tx.Load(a + htNext)
	}
	node := h.sys.MustAlloc(HTNodeWords)
	tx.Store(node+htKey, key)
	tx.Store(node+htValue, value)
	tx.Store(node+htNext, n)
	tx.Store(head, uint64(node))
	return true
}
