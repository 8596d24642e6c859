package store

import "rhtm"

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
	walStats func() WALStats
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

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

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

// RevOf returns key's revision (see Store.RevOf).
func (sh *Sharded) RevOf(tx rhtm.Tx, key []byte) (uint64, bool) {
	return sh.Shard(key).RevOf(tx, key)
}

// LeaseOf returns key's attached lease id (see Store.LeaseOf).
func (sh *Sharded) LeaseOf(tx rhtm.Tx, key []byte) (uint64, bool) {
	return sh.Shard(key).LeaseOf(tx, key)
}

// Has reports whether key is present.
func (sh *Sharded) Has(tx rhtm.Tx, key []byte) bool {
	return sh.Shard(key).Has(tx, key)
}

// Put stores key→value in the key's shard.
func (sh *Sharded) Put(tx rhtm.Tx, key, value []byte) error {
	return sh.Shard(key).Put(tx, key, value)
}

// PutLease stores key→value with a lease attachment in the key's shard.
func (sh *Sharded) PutLease(tx rhtm.Tx, key, value []byte, lease uint64) error {
	return sh.Shard(key).PutLease(tx, key, value, lease)
}

// PutStamped is PutLease returning the stamped revision (see
// Store.PutStamped); revisions come from the owning shard's clock.
func (sh *Sharded) PutStamped(tx rhtm.Tx, key, value []byte, lease uint64) (uint64, error) {
	return sh.Shard(key).PutStamped(tx, key, value, lease)
}

// ReplayPut applies a logged write to the owning shard (see
// Store.ReplayPut). Single-threaded recovery only.
func (sh *Sharded) ReplayPut(tx rhtm.Tx, key, value []byte, rev, lease uint64) error {
	return sh.Shard(key).ReplayPut(tx, key, value, rev, lease)
}

// Delete removes key from its shard.
func (sh *Sharded) Delete(tx rhtm.Tx, key []byte) bool {
	return sh.Shard(key).Delete(tx, key)
}

// DeleteStamped is Delete returning the consumed revision (see
// Store.DeleteStamped).
func (sh *Sharded) DeleteStamped(tx rhtm.Tx, key []byte) (uint64, bool) {
	return sh.Shard(key).DeleteStamped(tx, key)
}

// ReplayDelete applies a logged deletion to the owning shard (see
// Store.ReplayDelete). Single-threaded recovery only.
func (sh *Sharded) ReplayDelete(tx rhtm.Tx, key []byte, rev uint64) bool {
	return sh.Shard(key).ReplayDelete(tx, key, rev)
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

// Len returns the number of live entries across all shards.
func (sh *Sharded) Len(tx rhtm.Tx) int {
	n := 0
	for _, st := range sh.shards {
		n += st.Len(tx)
	}
	return n
}

// Scan visits entries with start <= key < end in ascending key order across
// all shards — a Cursor drained into fn. Visiting stops early when fn
// returns false.
func (sh *Sharded) Scan(tx rhtm.Tx, start, end []byte, fn func(key, value []byte) bool) {
	for c := sh.Cursor(tx, start, end, 0); c.Next() && fn(c.Key(), c.Value()); {
	}
}

// ScanMeta visits every shard's entries — metadata included (see
// Store.ScanMeta). Shards are visited in shard order, not key order:
// checkpoint serialization does not need a global sort.
func (sh *Sharded) ScanMeta(tx rhtm.Tx, fn func(key, value []byte, rev, lease uint64) bool) {
	for _, st := range sh.shards {
		stop := false
		st.ScanMeta(tx, func(k, v []byte, rev, lease uint64) bool {
			if !fn(k, v, rev, lease) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
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
