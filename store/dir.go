package store

import (
	"fmt"

	"rhtm"
)

// The point directory: an open-addressed, linear-probing table of slot words
// beside the ordered index (Knuth, TAOCP vol. 3 §6.4, Algorithms L and R).
// Get, Read, RevOf and the lookup half of Put and Delete probe it instead of
// descending the tree; scans, Snapshot and the intent buckets stay on trees.
// A slot holds fragment<<40 | record address (0 = empty): the fragment is 24
// bits of the key's hash, so a probe compares key words only on a fragment
// match, and the address needs under 40 bits (the locator's argument in
// store.go). A point read thus loads one slot, the key words it compares, and
// the record's fields: a short transaction, the kind RH1's fast path favours.
//
// Conflicts need no mechanism of their own. A probe loads every slot from
// its key's home to the one it stops at. An insert writes the empty slot
// where its probe ended, which every absent-key read of that key loaded; a
// delete writes its own slot and every slot its backward shift moves, each of
// which a probe passing through it loaded. The engine's line-granular
// conflict detection orders them.
//
// The table never fills before the arena does, so an insert always finds an
// empty slot — a decided 2PC apply (intent.go) still cannot fail for room.
// The smallest live record is nine words, an 8-word record and a 1-word empty
// value block, so an arena of A words holds at most ⌈A/9⌉ records, and
// ⌈A/9⌉·8/7 slots keep the load at most 7/8.
const (
	fragBits = 24
	// minLiveWords is the arena footprint of the smallest live record.
	minLiveWords = 9
)

// dirSlots returns the directory size for an arena of words, rounded up to
// whole lines of line words so that the arena's blocks keep their alignment.
func dirSlots(words, line int) int {
	n := ((words+minLiveWords-1)/minLiveWords*8 + 6) / 7
	return (n + line - 1) / line * line
}

// fragmentOf returns key's 24-bit fragment: the top bits of its hash after a
// multiplicative mix, because the hash's residues already chose the key's
// System and shard.
func fragmentOf(key []byte) uint64 {
	return KeyHash(key) * 0x9e3779b97f4a7c15 >> (64 - fragBits)
}

// home returns the slot a probe for a key of fragment frag starts at.
func (st *Store) home(frag uint64) int { return int(frag * uint64(st.slots) >> fragBits) }

// next returns the slot after i, wrapping at the table's end.
func (st *Store) next(i int) int {
	if i++; i == st.slots {
		return 0
	}
	return i
}

// find probes the directory for key. It returns key's record and its slot,
// or ok false and the empty slot the probe ended at — where an insert of key
// links its record.
func (st *Store) find(tx rhtm.Tx, key []byte) (rec rhtm.Addr, slot int, ok bool) {
	frag := fragmentOf(key)
	for i := st.home(frag); ; i = st.next(i) {
		w := tx.Load(st.dir + rhtm.Addr(i))
		if w == 0 {
			return 0, i, false
		}
		if w>>locLenShift == frag {
			if c, _ := compareKey(tx, key, locBlock(w), 0); c == 0 {
				return locBlock(w), i, true
			}
		}
	}
}

// link fills the empty slot a probe for key ended at with rec.
func (st *Store) link(tx rhtm.Tx, key []byte, slot int, rec rhtm.Addr) {
	tx.Store(st.dir+rhtm.Addr(slot), fragmentOf(key)<<locLenShift|uint64(rec))
}

// vacate empties slot i by backward-shift deletion (Algorithm R): each later
// entry of the run whose home does not lie cyclically in (i, j] moves back
// into the hole, which moves to where the entry was. No probe then meets an
// empty slot before its key, and no tombstone is left.
func (st *Store) vacate(tx rhtm.Tx, i int) {
	for j := st.next(i); ; j = st.next(j) {
		w := tx.Load(st.dir + rhtm.Addr(j))
		if w == 0 {
			break
		}
		if h := st.home(w >> locLenShift); i < j && i < h && h <= j || j < i && (i < h || h <= j) {
			continue // the entry would sit before its home
		}
		tx.Store(st.dir+rhtm.Addr(i), w)
		i = j
	}
	tx.Store(st.dir+rhtm.Addr(i), 0)
}

// validateDir checks the directory against the tree under tx: every record
// the tree links is found by a probe at a slot holding it, the occupied slots
// number the count word's entries, and no empty slot lies between an entry
// and its home.
func (st *Store) validateDir(tx rhtm.Tx) error {
	var err error
	st.idx.Scan(tx, nil, nil, func(rec rhtm.Addr) bool {
		key := loadKey(tx, rec+recKey, locLen(tx.Load(rec+recLocator)))
		if got, _, ok := st.find(tx, key); !ok || got != rec {
			err = fmt.Errorf("store: directory probe for %q finds record %d (%v), tree links %d", key, got, ok, rec)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	occupied := 0
	for j := 0; j < st.slots; j++ {
		w := tx.Load(st.dir + rhtm.Addr(j))
		if w == 0 {
			continue
		}
		occupied++
		for i := st.home(w >> locLenShift); i != j; i = st.next(i) {
			if tx.Load(st.dir+rhtm.Addr(i)) == 0 {
				return fmt.Errorf("store: directory slot %d is empty between slot %d and its home", i, j)
			}
		}
	}
	if n := st.Len(tx); occupied != n {
		return fmt.Errorf("store: directory holds %d entries, count word %d", occupied, n)
	}
	return nil
}
