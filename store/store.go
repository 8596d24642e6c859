// Package store is a byte-addressed, transactional key-value store built on
// the rhtm simulated machine — the storage layer that turns the paper's
// protocol stack into something an application can grow on. Keys and values
// are arbitrary []byte, packed into 64-bit words of simulated memory by a
// varlen codec; a transactional free-list arena allocates the blocks; an
// intrusive comparator-ordered red-black tree (containers.OrderedTree) links
// the records in key order for Scan and Snapshot, and a point directory — an
// open-addressed table of record addresses (dir.go) — finds them for Get,
// Read, RevOf, Put and Delete in one probe, usually one slot. A record is one
// arena block that is its own index node and carries its key, so a descent
// step reads one child pointer and the key words it compares — usually one, as
// it skips the prefix its bounds share with the probe — all on the record's
// first cache line for keys up to 21 bytes.
//
// Every operation runs inside an rhtm.Tx body, so multi-key read-modify-
// write sequences compose atomically under whichever engine drives the
// transaction (RH1, RH2, TL2, the hybrids, ...). Sharded hash-partitions
// the key space into per-shard sub-stores on one System: per-shard index
// roots and arenas slash structural contention while cross-shard
// transactions stay atomic, because every engine on one System shares the
// same conflict detection. Conflicts are detected per cache line, so every
// word written on its own — a count, a tree root, an allocation frontier, the
// event log's clock — has a line to itself, and pending intents are indexed by
// key-hashed buckets (intent.go): a transaction conflicts with the writers of
// its own keys, not with whoever happens to be its neighbour.
//
//	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 20))
//	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
//	kv := store.NewSharded(s, 8, store.Options{})
//	th := eng.NewThread()
//	err := th.Atomic(func(tx rhtm.Tx) error {
//	    kv.Put(tx, []byte("user1"), []byte("hello"))
//	    v, _ := kv.Get(tx, []byte("user1"))
//	    return kv.Put(tx, []byte("copy"), v)
//	})
package store

import (
	"fmt"

	"rhtm"
	"rhtm/containers"
	"rhtm/wal"
)

// Record layout, in words. Data and intent records share it, so either kind
// frees the block class the other allocates (see intent.go):
//
//	0..3       index header: left, right, parent, color (containers.OrderedTree)
//	4          locator: key length in bytes << 40 | block address — the value
//	           block of a data record, the payload block of an intent record
//	5..5+k-1   key, in the self-delimiting key words of codec.go: seven bytes
//	           a word over a marker byte; k = max(1, ceil(len/7)) words, so
//	           the word compareKey reads first exists even for the empty key
//	5+k, 6+k   data record: the revision the last write stamped (the store's
//	           monotonic commit version for the key) and the attached lease id
//	           (0 = none); unused in an intent record
//
// The value lives in its own block because it is rewritten in place and
// changes size class; replacing it is a few stores into the record — no tree
// surgery. The length shares the locator's word (an address needs under 40
// bits — a System of 2^40 words would be 8 TiB of host memory — and a key at
// most 18) so that a key of up to 7 bytes still fits the 8-word class. Only
// decoding reads it: a compare learns where the key ends from its words.
// The point directory's slots reuse the argument: a slot is a 24-bit key-hash
// fragment << 40 | record address, so the directory, not a chain word in each
// record, is what finds a record by key, and the record layout is unchanged.
//
// Inserts and scans still descend the tree; point operations probe the
// directory. An index descent reads, per level, the child link and the key
// words from the first one the probe may not share: every key between the
// nearest records the descent has passed on either side shares whatever prefix
// both share with the probe, so a prefix that ties is not loaded again (see
// containers.OrderedTree). For keys of up to 14 bytes under a common 7-byte
// prefix, such as "user%08d", that is usually one key word a level.
const (
	recLocator  = containers.OTHeaderWords
	recKey      = recLocator + 1
	locLenShift = 40
)

// recordWords returns the size of the record of a key of n bytes.
func recordWords(n int) int { return recKey + keyWords(n) + 2 }

// locator packs a record's locator word; locLen and locBlock split it.
func locator(keyBytes int, block rhtm.Addr) uint64 {
	return uint64(keyBytes)<<locLenShift | uint64(block)
}
func locLen(m uint64) int         { return int(m >> locLenShift) }
func locBlock(m uint64) rhtm.Addr { return rhtm.Addr(m & (1<<locLenShift - 1)) }

// revCell returns the address of the revision word of key's data record; the
// lease word follows it.
func revCell(rec rhtm.Addr, key []byte) rhtm.Addr {
	return rec + recKey + rhtm.Addr(keyWords(len(key)))
}

// newRecord allocates key's record pointing at block; the caller links it.
func (st *Store) newRecord(tx rhtm.Tx, key []byte, block rhtm.Addr) (rhtm.Addr, error) {
	rec, err := st.arena.TxAlloc(tx, recordWords(len(key)))
	if err != nil {
		return 0, err
	}
	tx.Store(rec+recLocator, locator(len(key), block))
	storeKey(tx, rec+recKey, key)
	return rec, nil
}

// decodeRecord returns private copies of the key and value of the data
// record at rec, and the address of its revision word.
func decodeRecord(tx rhtm.Tx, rec rhtm.Addr) (key, value []byte, rc rhtm.Addr) {
	m := tx.Load(rec + recLocator)
	key = loadKey(tx, rec+recKey, locLen(m))
	return key, readBytes(tx, locBlock(m)), revCell(rec, key)
}

// DefaultArenaWords sizes a store's arena when Options.ArenaWords is zero.
const DefaultArenaWords = 1 << 16

// Options configures a Store.
type Options struct {
	// ArenaWords is the capacity, in simulated words, of the store's block
	// arena (records, value blocks and intent payloads all come from it, and
	// the point directory takes about one word in eight at its front).
	// Zero selects DefaultArenaWords. For NewSharded this is the per-shard
	// capacity, so the System's heap must hold at least
	// shards*(ArenaWords+LogWords) words (plus a few lines of allocator
	// metadata) or construction panics with "heap exhausted".
	ArenaWords int
	// LogWords sizes the store's commit-event ring (see EventLog), allocated
	// from the System heap beside the arena. Zero selects DefaultLogWords.
	// For NewSharded this is per shard — every shard owns an independent
	// revision clock and event log.
	LogWords int
}

// Store is one transactional key-value store: an ordered index of varlen
// records in a private arena. Use it inside transaction bodies; for
// single-threaded population and verification, pass containers.SetupTx(s).
type Store struct {
	sys     *rhtm.System
	arena   *Arena
	idx     *containers.OrderedTree
	intents [intentBuckets]*containers.OrderedTree // see intentsOf
	log     *EventLog
	count   rhtm.Addr // one word on its own line: live entry count
	dir     rhtm.Addr // the point directory (dir.go): the arena's first block
	slots   int       // its size in slots

	// walStats, when set, snapshots the attached write-ahead log's
	// counters for Stats and Validate (host-side; see SetWALStats).
	walStats func() wal.Stats
}

// New allocates a store on s. Call during single-threaded setup. The point
// directory takes the front of the arena: about one word in eight. New panics
// on an arena too large for a 24-bit fragment to spread its probes over the
// directory — more than 2^24 slots, about 132 million arena words.
func New(s *rhtm.System, opts Options) *Store {
	words := opts.ArenaWords
	if words <= 0 {
		words = DefaultArenaWords
	}
	slots := dirSlots(words, s.Internal().Mem.Config().WordsPerLine)
	if slots > 1<<fragBits {
		panic(fmt.Sprintf("store: an arena of %d words needs %d directory slots, more than a %d-bit fragment spreads over",
			words, slots, fragBits))
	}
	st := &Store{
		sys:   s,
		arena: NewArena(s, words),
		log:   NewEventLog(s, opts.LogWords),
		count: s.MustAllocLines(1),
		idx:   containers.NewOrderedTree(s, compareKey),
		slots: slots,
	}
	st.dir = st.arena.reserve(slots)
	for b := range st.intents {
		st.intents[b] = containers.NewOrderedTree(s, compareKey)
	}
	return st
}

// Events returns the store's revision clock and commit-event log.
func (st *Store) Events() *EventLog { return st.log }

// System returns the simulated machine the store lives on — the durability
// layer's recovery pass runs its single-threaded replay transactions there.
func (st *Store) System() *rhtm.System { return st.sys }

// PartitionOf returns the index of the revision-clock partition owning key:
// always 0 for an unsharded store. The WAL's sequence gate keys on it.
func (st *Store) PartitionOf(key []byte) int { return 0 }

// EventLogs returns the store's logs as a one-element slice — the shape the
// kv layer consumes uniformly for Store, Sharded and cluster backends.
func (st *Store) EventLogs() []*EventLog { return []*EventLog{st.log} }

// RecordFootprintWords returns the arena words one live record consumes,
// class-rounded: the record (index header, locator, key, revision, lease)
// and its value block. Workload builders use it to size arenas; keeping it
// here means layout changes (record shape, codec header) cannot silently
// drift from the sizing math.
func RecordFootprintWords(keyBytes, valueBytes int) int {
	return 1<<classOf(recordWords(keyBytes)) + 1<<classOf(blockWords(valueBytes))
}

// Get returns the value stored under key. The returned slice is a private
// copy decoded from simulated memory.
func (st *Store) Get(tx rhtm.Tx, key []byte) ([]byte, bool) {
	rec, _, ok := st.find(tx, key)
	if !ok {
		return nil, false
	}
	return readBytes(tx, locBlock(tx.Load(rec+recLocator))), true
}

// Read returns key's value together with its revision (the store's
// monotonic commit version stamped by the last write) and attached lease id
// (0 = none).
func (st *Store) Read(tx rhtm.Tx, key []byte) (value []byte, rev, lease uint64, ok bool) {
	value, rev, lease, ok = st.AppendRead(tx, key, nil)
	return value[:len(value):len(value)], rev, lease, ok
}

// AppendRead is Read decoding the value onto the end of dst, for a caller
// that wants a record's revision or lease and drops its value: a dst reused
// from call to call stops allocating once it has grown to the values read.
func (st *Store) AppendRead(tx rhtm.Tx, key, dst []byte) (value []byte, rev, lease uint64, ok bool) {
	rec, _, found := st.find(tx, key)
	if !found {
		return dst, 0, 0, false
	}
	rc := revCell(rec, key)
	return appendBytes(dst, tx, locBlock(tx.Load(rec+recLocator))), tx.Load(rc), tx.Load(rc + 1), true
}

// RevOf returns key's revision without decoding the value; absent keys
// report (0, false).
func (st *Store) RevOf(tx rhtm.Tx, key []byte) (uint64, bool) {
	rec, _, ok := st.find(tx, key)
	if !ok {
		return 0, false
	}
	return tx.Load(revCell(rec, key)), true
}

// Put stores key→value, overwriting any existing value and detaching any
// lease (lease id 0). When the new value packs into the same size class as
// the old one it is rewritten in place; otherwise a new block is allocated
// and the old one freed — both under tx, so an abort rolls the swap back.
// Every successful put stamps a fresh revision and appends an EvPut to the
// store's event log. The only error is arena exhaustion.
func (st *Store) Put(tx rhtm.Tx, key, value []byte) error {
	_, err := st.putWith(tx, key, value, rhtm.NilAddr, 0, 0)
	return err
}

// Write applies a fresh put or delete (op's Kind, Key, and a put's Value
// and Lease) and returns the redo record the durability layer logs: op
// stamped with the revision the write took and the partition owning the
// key, sharing op's buffers. Rev 0 means a delete of an absent key —
// nothing happened, so nothing is logged. Write and Replay are the only
// ways a log record crosses into the store, and Snapshot the only way state
// crosses out.
func (st *Store) Write(tx rhtm.Tx, op wal.Op) (wal.Op, error) {
	if op.Kind == wal.OpDelete {
		rev, _ := st.deleteWith(tx, op.Key, 0)
		return wal.Op{Kind: wal.OpDelete, Key: op.Key, Rev: rev}, nil
	}
	rev, err := st.putWith(tx, op.Key, op.Value, rhtm.NilAddr, op.Lease, 0)
	return wal.Op{Kind: wal.OpPut, Key: op.Key, Value: op.Value, Rev: rev, Lease: op.Lease}, err
}

// Replay applies logged records (crash recovery, replica apply) at their
// original revisions instead of minting fresh ones, advancing the revision
// clock to at least each record's revision — a delete's even when the key
// is already absent, since the deletion consumed that revision when it was
// logged — so later writes continue the same monotone sequence and watch
// streams resume at the replayed revision. A record at or below the stored
// record's revision is a re-delivery and changes nothing: the pageLSN test
// of ARIES (Mohan et al., TODS 1992), with the record's revision as its
// page LSN. Returns the highest revision among ops.
func (st *Store) Replay(tx rhtm.Tx, ops []wal.Op) (maxRev uint64, err error) {
	return replay(tx, ops, func([]byte) *Store { return st })
}

// replay applies ops to the store each key routes to (see Store.Replay).
func replay(tx rhtm.Tx, ops []wal.Op, route func(key []byte) *Store) (maxRev uint64, err error) {
	for i := range ops {
		op := &ops[i]
		maxRev = max(maxRev, op.Rev)
		st := route(op.Key)
		if op.Kind == wal.OpPut {
			if _, err := st.putWith(tx, op.Key, op.Value, rhtm.NilAddr, op.Lease, op.Rev); err != nil {
				return 0, err
			}
		} else if _, ok := st.deleteWith(tx, op.Key, op.Rev); !ok {
			st.log.AdvanceTo(tx, op.Rev)
		}
	}
	return maxRev, nil
}

// putWith is Put with an optional pre-allocated value block (reserved !=
// NilAddr, sized blockWords(len(value))): the intent apply path passes the
// block PrepareIntent reserved so that a decided transaction's store cannot
// fail on arena exhaustion. When the rewrite lands in place the reservation
// is returned to the arena. rev 0 mints a fresh revision from the store's
// clock; nonzero replays a logged one (recovery). Returns the revision
// stamped.
func (st *Store) putWith(tx rhtm.Tx, key, value []byte, reserved rhtm.Addr, lease uint64, rev uint64) (uint64, error) {
	newWords := blockWords(len(value))
	takeValueBlock := func() (rhtm.Addr, error) {
		if reserved != rhtm.NilAddr {
			return reserved, nil
		}
		return st.arena.TxAlloc(tx, newWords)
	}
	stamp := func(rec rhtm.Addr) uint64 {
		r := rev
		if r == 0 {
			r = st.log.NextRev(tx)
		} else {
			st.log.AdvanceTo(tx, r)
		}
		rc := revCell(rec, key)
		tx.Store(rc, r)
		tx.Store(rc+1, lease)
		st.log.Append(tx, EvPut, key, value, r)
		return r
	}
	rec, slot, ok := st.find(tx, key)
	if ok {
		if rev != 0 && rev <= tx.Load(revCell(rec, key)) {
			return rev, nil // re-delivered: the record holds this write or a later one
		}
		old := locBlock(tx.Load(rec + recLocator))
		oldWords := blockWords(int(tx.Load(old)))
		if classOf(newWords) == classOf(oldWords) {
			writeBytes(tx, old, value)
			if reserved != rhtm.NilAddr {
				st.arena.TxFree(tx, reserved, newWords)
			}
			return stamp(rec), nil
		}
		nv, err := takeValueBlock()
		if err != nil {
			return 0, err
		}
		writeBytes(tx, nv, value)
		tx.Store(rec+recLocator, locator(len(key), nv))
		st.arena.TxFree(tx, old, oldWords)
		return stamp(rec), nil
	}
	vb, err := takeValueBlock()
	if err != nil {
		return 0, err
	}
	rec, err = st.newRecord(tx, key, vb)
	if err != nil {
		return 0, err
	}
	writeBytes(tx, vb, value)
	st.idx.Insert(tx, key, rec)
	st.link(tx, key, slot, rec)
	tx.Store(st.count, tx.Load(st.count)+1)
	return stamp(rec), nil
}

// deleteWith removes key, returning its revision and whether it was
// present: the record and its value block return to the arena under tx,
// and the removal appends an EvDelete to the event log. rev 0 mints a fresh
// revision, nonzero replays a logged one.
func (st *Store) deleteWith(tx rhtm.Tx, key []byte, rev uint64) (uint64, bool) {
	rec, slot, ok := st.find(tx, key)
	if !ok || rev != 0 && rev <= tx.Load(revCell(rec, key)) {
		return 0, false // absent, or a re-delivered removal of an older version
	}
	st.idx.Unlink(tx, rec)
	st.vacate(tx, slot)
	vb := locBlock(tx.Load(rec + recLocator))
	st.arena.TxFree(tx, vb, blockWords(int(tx.Load(vb))))
	st.arena.TxFree(tx, rec, recordWords(len(key)))
	tx.Store(st.count, tx.Load(st.count)-1)
	r := rev
	if r == 0 {
		r = st.log.NextRev(tx)
	} else {
		st.log.AdvanceTo(tx, r)
	}
	st.log.Append(tx, EvDelete, key, nil, r)
	return r, true
}

// ScanRev visits entries with start <= key < end in ascending key order,
// passing decoded copies of key and value and the entry's revision; nil
// bounds are unbounded. Visiting stops early when fn returns false.
func (st *Store) ScanRev(tx rhtm.Tx, start, end []byte, fn func(key, value []byte, rev uint64) bool) {
	st.idx.Scan(tx, start, end, func(rec rhtm.Addr) bool {
		k, v, rc := decodeRecord(tx, rec)
		return fn(k, v, tx.Load(rc))
	})
}

// Snapshot returns every entry — lease records included, since they live
// in the same index — as a put record at its revision with its lease, in
// ascending key order: the body of a checkpoint.
func (st *Store) Snapshot(tx rhtm.Tx) []wal.Op { return st.snapshot(tx, nil, 0) }

// snapshot appends st's entries to ops as records of partition part.
func (st *Store) snapshot(tx rhtm.Tx, ops []wal.Op, part int) []wal.Op {
	st.idx.Scan(tx, nil, nil, func(rec rhtm.Addr) bool {
		k, v, rc := decodeRecord(tx, rec)
		ops = append(ops, wal.Op{
			Part: part, Kind: wal.OpPut, Key: k, Value: v,
			Rev: tx.Load(rc), Lease: tx.Load(rc + 1),
		})
		return true
	})
	return ops
}

// ScanLimitRev is ScanRev bounded to the first limit entries.
func (st *Store) ScanLimitRev(tx rhtm.Tx, start, end []byte, limit int, fn func(key, value []byte, rev uint64) bool) {
	n := 0
	st.ScanRev(tx, start, end, func(k, v []byte, rev uint64) bool {
		n++
		if !fn(k, v, rev) {
			return false
		}
		return limit <= 0 || n < limit
	})
}

// Len returns the number of live entries.
func (st *Store) Len(tx rhtm.Tx) int {
	return int(tx.Load(st.count))
}

// Validate checks every index's structural invariants, the count word
// against a full traversal and the point directory against the tree, using
// raw memory access. Only call while no transactions are in flight.
func (st *Store) Validate() error {
	if err := st.idx.Validate(); err != nil {
		return err
	}
	for _, b := range st.intents {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	tx := containers.SetupTx(st.sys)
	if n := st.idx.Len(tx); n != st.Len(tx) {
		return fmt.Errorf("store: count word %d != %d traversed entries", st.Len(tx), n)
	}
	if err := st.validateDir(tx); err != nil {
		return err
	}
	if walked, counted := st.arena.walkFreeWords(tx), st.arena.Stats(tx).FreeListWords; walked != counted {
		return fmt.Errorf("store: free-list counters say %d free words, walk finds %d",
			counted, walked)
	}
	if st.walStats != nil {
		if err := validateWAL(st.walStats()); err != nil {
			return err
		}
	}
	return nil
}
