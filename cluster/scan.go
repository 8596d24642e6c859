package cluster

import (
	"bytes"
	"sort"

	"rhtm"
)

// Snapshot scans: the cluster has no global clock or shared conflict
// detection, so an ordered range read spanning Systems cannot be one engine
// transaction. ScanSnapshot builds the snapshot optimistically instead:
// each System's in-range entries are collected in one local engine
// transaction (atomic per System, and refused while any in-range key has a
// pending 2PC intent — the range is undecided then, exactly as IntentOn
// makes a single key undecided), the per-System results are merged by key,
// and the whole scan is re-executed once more for validation. Only when
// both passes observe identical entries is the result returned, otherwise
// the scan is ErrConflict and the caller may run it again: any commit
// that landed between the per-System reads of pass one flips a key and
// fails the comparison, so a returned snapshot is the committed state at
// some instant between the two passes. The comparison is by per-entry
// *revision* (the store's monotonic commit version), which closes the ABA
// hole value-based validation has: a key changed and changed back between
// the passes still advanced its revision and fails the comparison.

// Entry is one key-value pair of a snapshot scan, in ascending key order,
// with the revision its value was committed at.
type Entry struct {
	Key   []byte
	Value []byte
	Rev   uint64
}

// ScanSnapshot returns a consistent ordered snapshot of the keys in
// [start, end) (nil bounds are unbounded), at most limit entries (0 =
// unbounded). A pass that meets a pending write intent, or two passes that
// disagree, make it ErrConflict.
func (cl *Client) ScanSnapshot(start, end []byte, limit int) ([]Entry, error) {
	first, err := cl.scanOnce(start, end, limit)
	if err != nil {
		return nil, err
	}
	second, err := cl.scanOnce(start, end, limit)
	if err != nil {
		return nil, err
	}
	if !scansEqual(first, second) {
		cl.c.scanRetries.Add(1)
		return nil, ErrConflict
	}
	cl.c.snapshotScans.Add(1)
	return first, nil
}

// scanOnce collects one pass: per System, one engine transaction gathering
// up to limit in-range entries (each System can contribute at most limit of
// the merged prefix), conflicting when the *observed* range holds a pending
// write intent (shared read intents pin values without changing them and do
// not block scans). The intent check is bounded to what the System actually
// yielded: when its collection stops at the limit with last key L, only
// [start, succ(L)) must be intent-free — an intent past L is for a key that
// cannot enter the merged prefix, because this System alone already has
// limit keys ≤ L, so the limit-th smallest key overall is ≤ L. A collection
// that exhausts the range is checked over all of [start, end), which also
// catches intents for keys *absent* from the index (a pending cross-System
// insert is a phantom-in-waiting).
func (cl *Client) scanOnce(start, end []byte, limit int) ([]Entry, error) {
	var all []Entry
	for _, n := range cl.c.nodes {
		var local []Entry
		err := cl.threads[n.id].Atomic(func(tx rhtm.Tx) error {
			local = local[:0]
			n.st.ScanLimitRev(tx, start, end, limit, func(k, v []byte, rev uint64) bool {
				local = append(local, Entry{Key: k, Value: v, Rev: rev})
				return true
			})
			checkEnd := end
			if limit > 0 && len(local) == limit {
				last := local[len(local)-1].Key
				checkEnd = append(append(make([]byte, 0, len(last)+1), last...), 0)
			}
			if n.st.HasWriteIntentInRange(tx, start, checkEnd) {
				return ErrConflict
			}
			return nil
		})
		cl.countIntentWait(err)
		if err != nil {
			return nil, err
		}
		all = append(all, local...)
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

// scansEqual reports whether two passes observed identical entries, by key
// and revision: equal revisions imply equal values (every write advances
// the revision), with no ABA blind spot.
func scansEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || a[i].Rev != b[i].Rev {
			return false
		}
	}
	return true
}
