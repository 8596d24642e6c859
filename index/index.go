// Package index implements transactional secondary indexes over any
// kv.DB. An index entry is an ordinary record in the kv index namespace:
//
//	kv.IndexSpace ‖ indexID (8 bytes big-endian) ‖ encoded value ‖ primary key
//
// with the entry's value holding the primary key again, so readers never
// need to split the key. Because the namespace is ordered and the value
// encodings callers supply are memcmp-comparable and prefix-free (see
// package table's ordered codec), a kv.Scan range cursor over the
// namespace IS an index scan — ordered by value, then by primary key.
//
// Entries are maintained inside the caller's own Update closure by Map,
// which makes row write + index write one atomic transaction on every
// engine with no new locking: the hybrid TM paths below already make
// arbitrary multi-word transactions atomic, and an index update is just
// two more words. The same property carries through cluster 2PC, the
// WAL, replication, and the network client unchanged, because an index
// entry is just a key.
//
// Build backfills an index online: it snapshots the base range in
// bounded slices and indexes each slice inside one closure that re-reads
// every row — rows that changed since the snapshot are indexed at their
// current value (the closure's own validation is the revision guard),
// rows deleted since are skipped, and overlap with concurrent writers'
// own Map calls is idempotent (same entry key, same value). Verify
// audits the result: it diffs index against base in both directions.
package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rhtm/kv"
)

// ErrUniqueViolation reports an insert or update that would give two
// rows the same value in a unique index. Returned from inside the
// caller's Update closure, it aborts the transaction — the row write and
// any partial index maintenance vanish together.
var ErrUniqueViolation = errors.New("index: unique constraint violation")

// Def identifies one secondary index: where its entries live (ID) and
// how it behaves. Defs are plain values — derive ID deterministically
// (package table hashes "table.index") and the same entries are
// addressable from any process with no catalog.
type Def struct {
	// ID is the index's stable 64-bit identity; entries live under
	// kv.IndexSpace ‖ ID.
	ID uint64
	// Name labels the index in errors and metrics.
	Name string
	// Unique rejects two entries with the same value and different
	// primary keys.
	Unique bool
	// Metrics instruments maintenance; nil is a no-op.
	Metrics *Metrics
}

// Entry is one index entry: the encoded field value (memcmp-ordered,
// self-delimiting) and the primary key it points at.
type Entry struct {
	Val []byte
	PK  []byte
}

// prefixLen is len(kv.IndexSpace) + 8 id bytes.
const prefixLen = 2 + 8

// Prefix returns the key prefix all of def's entries share.
func Prefix(def Def) []byte {
	p := make([]byte, 0, prefixLen)
	p = append(p, kv.IndexSpace...)
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], def.ID)
	return append(p, id[:]...)
}

// Key composes the entry key for (val, pk).
func Key(def Def, val, pk []byte) []byte {
	k := make([]byte, 0, prefixLen+len(val)+len(pk))
	k = append(k, Prefix(def)...)
	k = append(k, val...)
	return append(k, pk...)
}

// PrefixSuccessor returns the smallest key greater than every key with
// prefix p — the exclusive end bound of a prefix scan. nil means
// unbounded (p was all 0xFF); kv clamps index-space scans at
// kv.IndexSpaceEnd, so nil is always safe as an end bound here.
func PrefixSuccessor(p []byte) []byte {
	e := bytes.Clone(p)
	for i := len(e) - 1; i >= 0; i-- {
		if e[i] < 0xFF {
			e[i]++
			return e[:i+1]
		}
	}
	return nil
}

// Range returns the entry-key range covering values in [loVal, hiVal).
// A nil loVal starts at the index's first entry; a nil hiVal ends after
// its last.
func Range(def Def, loVal, hiVal []byte) (start, end []byte) {
	p := Prefix(def)
	start = append(bytes.Clone(p), loVal...)
	if hiVal == nil {
		return start, PrefixSuccessor(p)
	}
	return start, append(bytes.Clone(p), hiVal...)
}

// ValueRange returns the entry-key range covering exactly the entries
// with encoded value val — valid because value encodings are prefix-free
// (no other value's encoding extends val's).
func ValueRange(def Def, val []byte) (start, end []byte) {
	start = Key(def, val, nil)
	return start, PrefixSuccessor(start)
}

// Map maintains def's entries for one record mutation inside tx: old is
// the record's previous indexed entry (nil on insert), new its next
// (nil on delete). Call it in the same Update closure as the row write;
// the engine commits or aborts the pair atomically. A missing old entry
// is tolerated (the row may predate an online backfill still in flight).
func Map(tx kv.Txn, def Def, old, new *Entry) error {
	if old != nil && new != nil && bytes.Equal(old.Val, new.Val) && bytes.Equal(old.PK, new.PK) {
		return nil
	}
	if new != nil {
		added, err := putEntry(tx, def, new)
		if err != nil {
			return err
		}
		if added {
			def.Metrics.entriesAdd(1)
		}
	}
	if old != nil {
		err := tx.Delete(Key(def, old.Val, old.PK))
		switch {
		case err == nil:
			def.Metrics.entriesAdd(-1)
		case !errors.Is(err, kv.ErrNotFound):
			return err
		}
	}
	def.Metrics.maintained(old, new)
	return nil
}

// putEntry writes new's entry, enforcing uniqueness for unique indexes,
// and reports whether the entry was newly created (vs overwritten — the
// idempotent-backfill case).
func putEntry(tx kv.Txn, def Def, new *Entry) (added bool, err error) {
	if def.Unique {
		if err := checkUnique(tx, def, new); err != nil {
			return false, err
		}
	}
	key := Key(def, new.Val, new.PK)
	rev, err := tx.Revision(key)
	if err != nil {
		return false, err
	}
	pk := bytes.Clone(new.PK)
	if err := tx.Put(key, pk); err != nil {
		return false, err
	}
	return rev == 0, nil
}

// checkUnique scans the value's entry range for an entry belonging to a
// different primary key. The scan joins the transaction's read set, so
// a concurrent insert of the same value conflicts at commit instead of
// slipping past the check (on the cluster this is the scanned-range
// revalidation; on a single System the scan's structural reads conflict
// with any insert into the range).
func checkUnique(tx kv.Txn, def Def, new *Entry) error {
	start, end := ValueRange(def, new.Val)
	it := tx.Scan(start, end, 2)
	for it.Next() {
		pk := it.Key()[prefixLen+len(new.Val):]
		if !bytes.Equal(pk, new.PK) {
			def.Metrics.uniqueViolation()
			return fmt.Errorf("index %s: value already present: %w", def.Name, ErrUniqueViolation)
		}
	}
	return it.Err()
}

// Iter decomposes a kv cursor over def's entry range into (Val, PK)
// pairs.
type Iter struct {
	it  kv.Iterator
	def Def
	val []byte
	pk  []byte
	err error
}

// Entries wraps it, which must range over def's entry keys only.
func Entries(def Def, it kv.Iterator) *Iter { return &Iter{it: it, def: def} }

// Next advances to the next entry.
func (i *Iter) Next() bool {
	if i.err != nil || !i.it.Next() {
		return false
	}
	key, pk := i.it.Key(), i.it.Value()
	if len(key) < prefixLen+len(pk) || !bytes.HasSuffix(key, pk) {
		i.err = fmt.Errorf("index %s: malformed entry key %x", i.def.Name, key)
		return false
	}
	i.val = key[prefixLen : len(key)-len(pk)]
	i.pk = pk
	return true
}

// Val returns the current entry's encoded value (valid until Next).
func (i *Iter) Val() []byte { return i.val }

// PK returns the current entry's primary key (valid until Next).
func (i *Iter) PK() []byte { return i.pk }

// Err reports a failed scan or a malformed entry after Next returns
// false.
func (i *Iter) Err() error {
	if i.err != nil {
		return i.err
	}
	return i.it.Err()
}

// Scan opens a snapshot cursor over def's entries with values in
// [loVal, hiVal) (nil bounds = whole index), yielding at most limit
// entries (0 = unbounded).
func Scan(db kv.DB, def Def, loVal, hiVal []byte, limit int) *Iter {
	start, end := Range(def, loVal, hiVal)
	return Entries(def, db.Scan(start, end, limit))
}
