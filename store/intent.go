package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rhtm"
	"rhtm/containers"
	"rhtm/wal"
)

// Write intents are the store-level half of the cluster package's two-phase
// commit: a prepared cross-System transaction installs one intent record per
// touched key in that key's System, and the coordinator's decision later
// applies or discards them. A *write* intent (IntentPut / IntentDelete) is
// an exclusive per-key reservation — while one is pending, the key's
// committed value cannot change (every conforming accessor checks
// WriteIntentOn / PrepareIntent first), which is what keeps a validated
// read valid between prepare and decision. A *read* intent (IntentRead) is
// shared: any number of transactions may hold read intents on the same key
// simultaneously — readers do not invalidate each other — but a read intent
// blocks writers (a write under a pinned read would invalidate the
// prepared transaction's validation), and a write intent blocks everyone.
//
// Intent records live on the store's own arena, in the record layout of
// store.go with the locator pointing at a payload block, indexed by
// intentBuckets small ordered trees chosen by a hash of the key. What the
// per-key check loads is in every transaction's read set: one tree's root was
// written by every prepare and finish, and each aborted every transaction in
// flight on the store; a bucket's root, on a line of its own, is written only
// by 2PC on a key of that bucket. The payload is kind-tagged and word-aligned
// so the hot checks cost single data loads beyond the index walk:
//
//	write intents (IntentPut / IntentDelete):
//	  byte 0       kind
//	  bytes 8..15  owning txid
//	  bytes 16..23 attached lease id (IntentPut only; 0 otherwise)
//	  bytes 24..31 reserved value-block address (IntentPut only)
//	  bytes 32..   value bytes (IntentPut only)
//
//	read intents (IntentRead):
//	  byte 0       kind
//	  bytes 8..15  sharer count n
//	  bytes 16..   n little-endian 8-byte txids
//
// A put intent pre-allocates the value block its apply will install (the
// reserved address above), so that once a transaction is decided, applying
// it cannot fail on arena exhaustion: the only other block the apply can
// need — the key's data record — is the size of the intent record the
// teardown itself frees moments earlier in the same transaction, so the
// free list is guaranteed to serve it, and the point directory, sized never
// to fill before the arena does (dir.go), has a slot for it. Capacity errors
// can only happen at prepare, before the commit decision, where aborting is
// safe.
//
// All mutations run under the caller's transaction, so a prepare that aborts
// installs nothing and an apply that aborts applies nothing.

// IntentKind classifies what ApplyIntent does for a key.
type IntentKind uint8

const (
	// IntentRead pins a validated read; shared — many transactions may hold
	// one on the same key. Apply and Discard both just release the holder.
	IntentRead IntentKind = iota
	// IntentPut buffers a value; ApplyIntent stores it (with its lease).
	IntentPut
	// IntentDelete buffers a deletion; ApplyIntent removes the key.
	IntentDelete
)

// intentBuckets is a constant, not an option: 64 root lines fit the heap
// slack every caller already leaves, and two keys collide once in 64.
const intentBuckets = 64

// intentsOf returns the bucket indexing key's intents: the top 6 bits of the
// key hash after a multiplicative mix, because its low bits already chose the
// key's System and shard and FNV-1a's own top bits ignore a key's last bytes.
func (st *Store) intentsOf(key []byte) *containers.OrderedTree {
	return st.intents[KeyHash(key)*0x9e3779b97f4a7c15>>58]
}

// Payload header sizes (see the layout comment above).
const (
	writeIntentHeaderBytes = 32
	readIntentHeaderBytes  = 16
)

// ErrIntentHeld is returned by PrepareIntent when the requested intent
// conflicts with a pending one: any intent blocks a writer, a write intent
// blocks a reader. Returning it from a transaction body aborts the prepare
// cleanly, leaving no partial intents on this store.
var ErrIntentHeld = errors.New("store: key has a conflicting pending intent")

// ErrIntentMissing is returned by ApplyIntent/DiscardIntent when the key
// holds no intent of the given transaction — a protocol bug in the caller,
// surfaced as an error so the enclosing transaction aborts without mutating
// anything.
var ErrIntentMissing = errors.New("store: no pending intent on key")

// IntentFootprintWords returns the arena words one pending write intent
// consumes, class-rounded (record, payload block, reserved apply-time value
// block) — the sizing companion of
// RecordFootprintWords for workloads that keep intents in flight. Shared
// read-intent records are strictly smaller until their sharer list outgrows
// the value: sizing by this function covers one sharer per in-flight
// transaction key either way.
func IntentFootprintWords(keyBytes, valueBytes int) int {
	return 1<<classOf(recordWords(keyBytes)) +
		1<<classOf(blockWords(writeIntentHeaderBytes+valueBytes)) +
		1<<classOf(blockWords(valueBytes))
}

// PrepareIntent installs an intent for key owned by txid. For IntentPut,
// value is the buffered bytes to store on apply (with lease attached), and
// the value block the apply will install is allocated here, up front. An
// IntentRead joins any read intents already pending on the key (shared);
// every other combination — writer meets any intent, reader meets a write
// intent, or txid already holds the key (each participant prepares a key at
// most once) — fails with ErrIntentHeld. Arena exhaustion surfaces as its
// own error.
func (st *Store) PrepareIntent(tx rhtm.Tx, key []byte, txid uint64, kind IntentKind, value []byte, lease uint64) error {
	bucket := st.intentsOf(key)
	if rec, held := bucket.Lookup(tx, key); held {
		if kind != IntentRead {
			return ErrIntentHeld
		}
		payload := readBytes(tx, locBlock(tx.Load(rec+recLocator)))
		if IntentKind(payload[0]) != IntentRead {
			return ErrIntentHeld
		}
		if readerIndex(payload, txid) >= 0 {
			return ErrIntentHeld
		}
		n := binary.LittleEndian.Uint64(payload[8:])
		grown := make([]byte, len(payload)+8)
		copy(grown, payload)
		binary.LittleEndian.PutUint64(grown[8:], n+1)
		binary.LittleEndian.PutUint64(grown[len(payload):], txid)
		return st.rewriteIntentPayload(tx, rec, key, payload, grown)
	}

	var payload []byte
	if kind == IntentRead {
		payload = make([]byte, readIntentHeaderBytes+8)
		payload[0] = byte(kind)
		binary.LittleEndian.PutUint64(payload[8:], 1)
		binary.LittleEndian.PutUint64(payload[16:], txid)
	} else {
		var vb rhtm.Addr
		if kind == IntentPut {
			reserved, err := st.arena.TxAlloc(tx, blockWords(len(value)))
			if err != nil {
				return err
			}
			vb = reserved
		} else {
			value = nil
		}
		payload = make([]byte, writeIntentHeaderBytes+len(value))
		payload[0] = byte(kind)
		binary.LittleEndian.PutUint64(payload[8:], txid)
		binary.LittleEndian.PutUint64(payload[16:], lease)
		binary.LittleEndian.PutUint64(payload[24:], uint64(vb))
		copy(payload[writeIntentHeaderBytes:], value)
	}

	pb, err := st.arena.TxAlloc(tx, blockWords(len(payload)))
	if err != nil {
		return err
	}
	rec, err := st.newRecord(tx, key, pb)
	if err != nil {
		return err
	}
	writeBytes(tx, pb, payload)
	bucket.Insert(tx, key, rec)
	return nil
}

// rewriteIntentPayload replaces an intent record's payload block, reusing
// it in place when the new bytes pack into the same size class.
func (st *Store) rewriteIntentPayload(tx rhtm.Tx, rec rhtm.Addr, key, old, new []byte) error {
	pb := locBlock(tx.Load(rec + recLocator))
	if classOf(blockWords(len(new))) == classOf(blockWords(len(old))) {
		writeBytes(tx, pb, new)
		return nil
	}
	npb, err := st.arena.TxAlloc(tx, blockWords(len(new)))
	if err != nil {
		return err
	}
	writeBytes(tx, npb, new)
	tx.Store(rec+recLocator, locator(len(key), npb))
	st.arena.TxFree(tx, pb, blockWords(len(old)))
	return nil
}

// readerIndex returns the byte offset of txid in a read-intent payload's
// sharer list, or -1.
func readerIndex(payload []byte, txid uint64) int {
	n := int(binary.LittleEndian.Uint64(payload[8:]))
	for i := 0; i < n; i++ {
		off := readIntentHeaderBytes + 8*i
		if binary.LittleEndian.Uint64(payload[off:]) == txid {
			return off
		}
	}
	return -1
}

// WriteIntentOn reports whether key has a pending *write* intent and, if
// so, which transaction owns it. Readers (single-key gets, snapshot scans)
// use it: shared read intents do not change the committed value, so they
// never block another read.
func (st *Store) WriteIntentOn(tx rhtm.Tx, key []byte) (txid uint64, held bool) {
	rec, ok := st.intentsOf(key).Lookup(tx, key)
	if !ok {
		return 0, false
	}
	pb := locBlock(tx.Load(rec + recLocator))
	// Payload word 1 holds bytes 0..7: the kind tag; word 2 bytes 8..15.
	if IntentKind(tx.Load(pb+1)&0xff) == IntentRead {
		return 0, false
	}
	return tx.Load(pb + 2), true
}

// AnyIntentOn reports whether key has any pending intent — the writer-side
// check: a write must wait for pending readers and writers alike.
func (st *Store) AnyIntentOn(tx rhtm.Tx, key []byte) bool {
	_, held := st.intentsOf(key).Lookup(tx, key)
	return held
}

// ApplyIntent executes and releases the intent txid holds on key: a put
// stores the buffered value (with its lease) into the block prepare
// reserved, a delete removes the key, a read releases txid's share. Given a
// matching intent, a put or delete cannot fail (see the reservation
// argument in the package comment); a missing intent or an owner mismatch
// returns an error, which aborts the enclosing transaction and so leaves
// the store untouched. It returns the redo record of what it applied, as
// Write does: Rev 0 for a released read intent or a delete of an
// already-absent key, which log nothing.
func (st *Store) ApplyIntent(tx rhtm.Tx, key []byte, txid uint64) (wal.Op, error) {
	payload, err := st.resolveIntent(tx, key, txid)
	if err != nil || payload == nil {
		return wal.Op{}, err
	}
	switch IntentKind(payload[0]) {
	case IntentPut:
		// The one block the store below can need beyond the reservation —
		// the key's data record — is the size of the intent record
		// resolveIntent just freed under this transaction, so it cannot
		// fail on capacity.
		vb := rhtm.Addr(binary.LittleEndian.Uint64(payload[24:]))
		lease := binary.LittleEndian.Uint64(payload[16:])
		value := payload[writeIntentHeaderBytes:]
		rev, err := st.putWith(tx, key, value, vb, lease, 0)
		return wal.Op{Kind: wal.OpPut, Key: key, Value: value, Rev: rev, Lease: lease}, err
	case IntentDelete:
		rev, _ := st.deleteWith(tx, key, 0)
		return wal.Op{Kind: wal.OpDelete, Key: key, Rev: rev}, nil
	}
	return wal.Op{}, nil
}

// DiscardIntent releases the intent txid holds on key without applying it
// (the abort half of the coordinator's decision), returning the reserved
// value block along with the record.
func (st *Store) DiscardIntent(tx rhtm.Tx, key []byte, txid uint64) error {
	payload, err := st.resolveIntent(tx, key, txid)
	if err != nil || payload == nil {
		return err
	}
	if IntentKind(payload[0]) == IntentPut {
		vb := rhtm.Addr(binary.LittleEndian.Uint64(payload[24:]))
		st.arena.TxFree(tx, vb, blockWords(len(payload)-writeIntentHeaderBytes))
	}
	return nil
}

// resolveIntent releases txid's hold on key's intent record. For a write
// intent it unlinks the record (after checking ownership) and returns the
// decoded payload for the caller to act on. For a shared read intent it
// removes txid from the sharer list — unlinking the record only when txid
// was the last sharer — and returns (nil, nil): reads have no effect to
// apply.
func (st *Store) resolveIntent(tx rhtm.Tx, key []byte, txid uint64) ([]byte, error) {
	bucket := st.intentsOf(key)
	rec, ok := bucket.Lookup(tx, key)
	if !ok {
		return nil, ErrIntentMissing
	}
	payload := readBytes(tx, locBlock(tx.Load(rec+recLocator)))

	if IntentKind(payload[0]) == IntentRead {
		off := readerIndex(payload, txid)
		if off < 0 {
			return nil, ErrIntentMissing
		}
		n := binary.LittleEndian.Uint64(payload[8:])
		if n > 1 {
			shrunk := make([]byte, len(payload)-8)
			copy(shrunk, payload)
			copy(shrunk[off:], payload[off+8:])
			binary.LittleEndian.PutUint64(shrunk[8:], n-1)
			return nil, st.rewriteIntentPayload(tx, rec, key, payload, shrunk)
		}
		st.unlinkIntent(tx, bucket, rec, key)
		return nil, nil
	}

	if owner := binary.LittleEndian.Uint64(payload[8:]); owner != txid {
		return nil, fmt.Errorf("store: intent on %q owned by txn %d, not %d", key, owner, txid)
	}
	st.unlinkIntent(tx, bucket, rec, key)
	return payload, nil
}

// unlinkIntent removes key's intent record rec from its bucket and frees its
// blocks.
func (st *Store) unlinkIntent(tx rhtm.Tx, bucket *containers.OrderedTree, rec rhtm.Addr, key []byte) {
	bucket.Unlink(tx, rec)
	pb := locBlock(tx.Load(rec + recLocator))
	st.arena.TxFree(tx, pb, blockWords(int(tx.Load(pb))))
	st.arena.TxFree(tx, rec, recordWords(len(key)))
}

// HasWriteIntentInRange reports whether any key in [start, end) (nil bounds
// are unbounded) has a pending write intent. Range readers — the cluster's
// snapshot scans — use it the way single-key readers use WriteIntentOn: a
// pending write makes part of the range undecided, so the scan waits for
// resolution instead of returning values that may be mid-replacement.
// Shared read intents are invisible here: they pin values without changing
// them. A range is spread over every bucket, so the check loads every bucket
// root and conflicts with every prepare and finish on the store.
func (st *Store) HasWriteIntentInRange(tx rhtm.Tx, start, end []byte) (found bool) {
	for b := 0; b < intentBuckets && !found; b++ {
		st.intents[b].Scan(tx, start, end, func(rec rhtm.Addr) bool {
			pb := locBlock(tx.Load(rec + recLocator))
			found = IntentKind(tx.Load(pb+1)&0xff) != IntentRead
			return !found
		})
	}
	return found
}

// PendingIntents returns the number of keys with an intent record installed
// (a shared read record with any number of sharers counts once), by walking
// every bucket: no transaction on the commit path pays for a counter.
func (st *Store) PendingIntents(tx rhtm.Tx) int {
	n := 0
	for _, bucket := range st.intents {
		n += bucket.Len(tx)
	}
	return n
}
