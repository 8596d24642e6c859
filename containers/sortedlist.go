package containers

import "rhtm"

// Sorted list node layout, in words.
const (
	slKey    = 0
	slNext   = 1
	slValue  = 2
	slDummy0 = 3
	// SLNodeWords is the allocation size of one list node.
	SLNodeWords = 8
)

const slDummyWords = SLNodeWords - slDummy0

// SortedList is a transactional singly linked sorted list keyed by uint64
// (key 0 reserved). Its linear scans make every transaction read the shared
// list prefix, the paper's heavy-contention workload (§3.4).
type SortedList struct {
	sys  *rhtm.System
	head rhtm.Addr // one-word cell holding the first node address
}

// NewSortedList allocates an empty list on s.
func NewSortedList(s *rhtm.System) *SortedList {
	return &SortedList{sys: s, head: s.MustAlloc(1)}
}

// Populate inserts the keys (value = key) non-transactionally during setup.
func (l *SortedList) Populate(keys []uint64) {
	tx := SetupTx(l.sys)
	for _, k := range keys {
		l.Insert(tx, k, k)
	}
}

// --- the paper's Constant operations ---

// ConstSearch is the paper's list_search(key): linear scan reading each
// visited node's dummy words.
func (l *SortedList) ConstSearch(tx rhtm.Tx, key uint64) bool {
	n := tx.Load(l.head)
	for n != uint64(rhtm.NilAddr) {
		a := rhtm.Addr(n)
		for i := 0; i < slDummyWords; i++ {
			_ = tx.Load(a + slDummy0 + rhtm.Addr(i))
		}
		k := tx.Load(a + slKey)
		if k == key {
			return true
		}
		if k > key {
			return false
		}
		n = tx.Load(a + slNext)
	}
	return false
}

// ConstUpdate is the paper's list_update(key, val): linear search, then
// update the dummy variables inside the found node without touching the
// structure.
func (l *SortedList) ConstUpdate(tx rhtm.Tx, key, value uint64) bool {
	n := tx.Load(l.head)
	for n != uint64(rhtm.NilAddr) {
		a := rhtm.Addr(n)
		k := tx.Load(a + slKey)
		if k == key {
			for i := 0; i < slDummyWords; i++ {
				tx.Store(a+slDummy0+rhtm.Addr(i), value)
			}
			return true
		}
		if k > key {
			return false
		}
		n = tx.Load(a + slNext)
	}
	return false
}

// --- real operations ---

// Insert adds key→value in sorted position, returning false (updating in
// place) if present. See RBTree.Insert for the allocation-on-retry note.
func (l *SortedList) Insert(tx rhtm.Tx, key, value uint64) bool {
	if key == 0 {
		panic("containers: SortedList key 0 is reserved")
	}
	prev := l.head
	n := tx.Load(prev)
	for n != uint64(rhtm.NilAddr) {
		a := rhtm.Addr(n)
		k := tx.Load(a + slKey)
		if k == key {
			tx.Store(a+slValue, value)
			return false
		}
		if k > key {
			break
		}
		prev = a + slNext
		n = tx.Load(prev)
	}
	node := l.sys.MustAlloc(SLNodeWords)
	tx.Store(node+slKey, key)
	tx.Store(node+slValue, value)
	tx.Store(node+slNext, n)
	tx.Store(prev, uint64(node))
	return true
}
