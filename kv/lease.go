package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rhtm/internal/frame"
)

// Leases, shared by both backends. A lease is one record in the reserved
// keyspace — key 0x00 'L' <8-byte id>, value (deadline, ttl, attached-key
// list) — written and read with the same closure transactions as user
// data. That placement is the design: grant, keep-alive, attach, revoke and
// expiry are ordinary transactions, so on the cluster a revoke whose keys
// span Systems is one two-phase commit, and an engine abort anywhere rolls
// the whole lease operation back. Expiry is lazy and pump-driven: a lease
// past its deadline stays effective until ExpireLeases (or Revoke) runs —
// etcd behaves the same way — and deadlines are measured on the DB's
// injected virtual Clock, so tests drive expiry deterministically.
//
// The attached-key list grows by one entry per distinct attach and is
// reconciled at revoke time against each key's lease *stamp* (the entry's
// lease word in the store): a key overwritten without the lease option
// detaches, so revoke deletes only keys still stamped with the lease id.
// Stale list entries cost a read at revoke, never a wrong delete.

// leaseKeyPrefix is the reserved-namespace prefix of lease records.
var (
	leaseKeyPrefix    = []byte{0x00, 'L'}
	leaseKeyPrefixEnd = []byte{0x00, 'L' + 1}
)

// leaseKey returns the record key of lease id.
func leaseKey(id LeaseID) []byte {
	k := make([]byte, 0, len(leaseKeyPrefix)+8)
	k = append(k, leaseKeyPrefix...)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return append(k, b[:]...)
}

// leaseIDOf extracts the id from a lease record key.
func leaseIDOf(key []byte) LeaseID {
	return binary.BigEndian.Uint64(key[len(leaseKeyPrefix):])
}

// leaseRecord is the decoded value of a lease record.
type leaseRecord struct {
	deadline uint64
	ttl      uint64
	keys     [][]byte
}

var leaseFormat = frame.Format{Corrupt: errors.New("kv: corrupt lease record")}

// walk is the record's layout, which encoding (frame.Marshal) and decoding
// (frame.Unmarshal) both run: u64 deadline, u64 ttl, u64 key count, then
// per key a u32 length and its bytes, all little-endian.
func (lr *leaseRecord) walk(c *frame.Codec) {
	c.U64(&lr.deadline)
	c.U64(&lr.ttl)
	lr.keys = frame.Slice(c, lr.keys, c.Count64(len(lr.keys), 4))
	for i := range lr.keys {
		c.Blob(&lr.keys[i])
	}
}

func (lr *leaseRecord) hasKey(key []byte) bool {
	for _, k := range lr.keys {
		if string(k) == string(key) {
			return true
		}
	}
	return false
}

// getLease reads and decodes lease id inside a transaction, mapping
// absence to ErrLeaseNotFound.
func getLease(ct coordTxn, id LeaseID) (leaseRecord, error) {
	raw, err := ct.getRaw(leaseKey(id))
	if errors.Is(err, ErrNotFound) {
		return leaseRecord{}, fmt.Errorf("kv: lease %d: %w", id, ErrLeaseNotFound)
	}
	if err != nil {
		return leaseRecord{}, err
	}
	var lr leaseRecord
	err = frame.Unmarshal(raw, &leaseFormat, lr.walk)
	return lr, err
}

// leaseAttach is the WithLease half of txnPut: store the key stamped with
// the lease and record it in the lease's key list, all in the caller's
// transaction.
func leaseAttach(ct coordTxn, key, value []byte, id LeaseID) error {
	lr, err := getLease(ct, id)
	if err != nil {
		return err
	}
	if !lr.hasKey(key) {
		lr.keys = append(lr.keys, key)
		if err := ct.putRaw(leaseKey(id), frame.Marshal(lr.walk), 0); err != nil {
			return err
		}
	}
	return ct.putRaw(key, value, id)
}

// Grant implements DB: ids come from the DB's host-side sequence
// (uniqueness needs no transaction), the record is one transactional put.
func (db *core[S]) Grant(ttl uint64) (LeaseID, error) {
	id := db.leaseSeq.Add(1)
	lr := leaseRecord{deadline: db.clock.Now() + ttl, ttl: ttl}
	err := db.Update(func(tx Txn) error {
		return tx.(coordTxn).putRaw(leaseKey(id), frame.Marshal(lr.walk), 0)
	})
	if err != nil {
		return 0, err
	}
	db.met.leaseGrants.Inc()
	return id, nil
}

// KeepAlive implements DB: the lease deadline moves to now + granted ttl.
func (db *core[S]) KeepAlive(id LeaseID) error {
	err := db.Update(func(tx Txn) error {
		ct := tx.(coordTxn)
		lr, err := getLease(ct, id)
		if err != nil {
			return err
		}
		lr.deadline = db.clock.Now() + lr.ttl
		return ct.putRaw(leaseKey(id), frame.Marshal(lr.walk), 0)
	})
	if err == nil {
		db.met.leaseKeepAlives.Inc()
	}
	return err
}

// Revoke implements DB: the lease record and every key still stamped with
// the lease are deleted as one transaction.
func (db *core[S]) Revoke(id LeaseID) error {
	err := db.Update(func(tx Txn) error {
		return revokeInTxn(tx.(coordTxn), id)
	})
	if err == nil {
		db.met.leaseRevokes.Inc()
	}
	return err
}

func revokeInTxn(ct coordTxn, id LeaseID) error {
	lr, err := getLease(ct, id)
	if err != nil {
		return err
	}
	for _, key := range lr.keys {
		stamp, err := ct.leaseOf(key)
		if err != nil {
			return err
		}
		if stamp != id {
			continue // detached by a later un-leased Put, or already gone
		}
		if err := ct.deleteRaw(key); err != nil {
			return err
		}
	}
	return ct.deleteRaw(leaseKey(id))
}

// ExpireLeases implements DB: it scans the lease records, then revokes each
// one past its deadline in its own transaction — the deadline is re-checked
// inside, so concurrent pumps (or a racing KeepAlive) never double-expire or
// kill a refreshed lease. The listing scan is a snapshot: leases granted
// after it are caught by the next pump.
func (db *core[S]) ExpireLeases() (int, error) {
	entries, err := db.scan(leaseKeyPrefix, leaseKeyPrefixEnd, 0)
	if err != nil {
		return 0, err
	}
	now := db.clock.Now()
	expired := 0
	for _, e := range entries {
		var lr leaseRecord
		if err := frame.Unmarshal(e.Value, &leaseFormat, lr.walk); err != nil {
			return expired, err
		}
		if lr.deadline > now {
			continue
		}
		id := leaseIDOf(e.Key)
		did := false
		err = db.Update(func(tx Txn) error {
			did = false
			ct := tx.(coordTxn)
			cur, err := getLease(ct, id)
			if errors.Is(err, ErrLeaseNotFound) {
				return nil // a concurrent pump won the race
			}
			if err != nil {
				return err
			}
			if cur.deadline > now {
				return nil // refreshed since the listing
			}
			did = true
			return revokeInTxn(ct, id)
		})
		if err != nil {
			return expired, err
		}
		if did {
			expired++
			db.met.leaseExpired.Inc()
		}
	}
	return expired, nil
}
