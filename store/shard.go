package store

import (
	"rhtm"
	"rhtm/wal"
)

// Sharded hash-partitions the key space into per-shard sub-stores on one
// System. Each shard has its own index root and arena, so structurally
// independent operations touch disjoint tree roots and allocator words —
// the contention hot spots of a single Store. Transactions spanning shards
// remain atomic: the shards share the System's conflict detection, so a
// cross-shard multi-key body commits or aborts as one unit under any
// engine.
type Sharded struct {
	shards []*Store

	// walStats, when set, snapshots the DB-level write-ahead log's
	// counters (see SetWALStats in stats.go).
	walStats func() wal.Stats
}

// NewSharded allocates n shards on s, each with its own Options.ArenaWords
// arena. Call during single-threaded setup.
func NewSharded(s *rhtm.System, n int, opts Options) *Sharded {
	if n <= 0 {
		n = 1
	}
	sh := &Sharded{shards: make([]*Store, n)}
	for i := range sh.shards {
		sh.shards[i] = New(s, opts)
	}
	return sh
}

// KeyHash is the 64-bit FNV-1a hash of a key, computed in plain Go: shard
// (and cluster System) routing is a pure function of the key bytes and costs
// no simulated accesses. It is deterministic across runs and processes, so
// placement decisions are stable — the cluster package's Router uses the
// same function.
func KeyHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// ShardIndex returns the shard a key routes to.
func (sh *Sharded) ShardIndex(key []byte) int {
	return int(KeyHash(key) % uint64(len(sh.shards)))
}

// PartitionOf is ShardIndex under the durability layer's name: each shard
// owns an independent revision clock, so the WAL's sequence gate tracks
// one cursor per shard.
func (sh *Sharded) PartitionOf(key []byte) int { return sh.ShardIndex(key) }

// System returns the simulated machine the shards share.
func (sh *Sharded) System() *rhtm.System { return sh.shards[0].sys }

// Shard returns the sub-store a key routes to (for tests and diagnostics).
func (sh *Sharded) Shard(key []byte) *Store {
	return sh.shards[sh.ShardIndex(key)]
}

// Get returns the value stored under key.
func (sh *Sharded) Get(tx rhtm.Tx, key []byte) ([]byte, bool) {
	return sh.Shard(key).Get(tx, key)
}

// Read returns key's value, revision and lease (see Store.Read). Revisions
// are per-shard monotonic commit versions: comparable per key, not across
// shards.
func (sh *Sharded) Read(tx rhtm.Tx, key []byte) (value []byte, rev, lease uint64, ok bool) {
	return sh.Shard(key).Read(tx, key)
}

// AppendRead is Read decoding the value onto the end of dst (see
// Store.AppendRead).
func (sh *Sharded) AppendRead(tx rhtm.Tx, key, dst []byte) (value []byte, rev, lease uint64, ok bool) {
	return sh.Shard(key).AppendRead(tx, key, dst)
}

// Put stores key→value in the key's shard.
func (sh *Sharded) Put(tx rhtm.Tx, key, value []byte) error {
	return sh.Shard(key).Put(tx, key, value)
}

// Write applies a fresh put or delete to the key's shard and returns its
// redo record (see Store.Write); revisions come from the owning shard's
// clock, which the record names as its partition.
func (sh *Sharded) Write(tx rhtm.Tx, op wal.Op) (wal.Op, error) {
	i := sh.ShardIndex(op.Key)
	op, err := sh.shards[i].Write(tx, op)
	op.Part = i
	return op, err
}

// Replay applies logged records, each to the shard its key routes to (see
// Store.Replay).
func (sh *Sharded) Replay(tx rhtm.Tx, ops []wal.Op) (maxRev uint64, err error) {
	return replay(tx, ops, sh.Shard)
}

// EventLogs returns every shard's commit-event log (one independent
// revision clock per shard), in shard order.
func (sh *Sharded) EventLogs() []*EventLog {
	logs := make([]*EventLog, len(sh.shards))
	for i, st := range sh.shards {
		logs[i] = st.Events()
	}
	return logs
}

// Snapshot returns every shard's entries as put records (see
// Store.Snapshot), in shard order rather than key order: a checkpoint does
// not need a global sort.
func (sh *Sharded) Snapshot(tx rhtm.Tx) []wal.Op {
	var ops []wal.Op
	for i, st := range sh.shards {
		ops = st.snapshot(tx, ops, i)
	}
	return ops
}

// Validate checks every shard's invariants plus the DB-level WAL
// watermarks. Only call while no transactions are in flight.
func (sh *Sharded) Validate() error {
	for _, st := range sh.shards {
		if err := st.Validate(); err != nil {
			return err
		}
	}
	if sh.walStats != nil {
		if err := validateWAL(sh.walStats()); err != nil {
			return err
		}
	}
	return nil
}
