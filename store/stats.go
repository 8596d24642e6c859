package store

import (
	"fmt"

	"rhtm"
	"rhtm/wal"
)

// Stats aggregates a store's transactional counters: live entries, pending
// intents, arena occupancy, and — when a write-ahead log is attached — the
// durability counters. The harness reports it after each KV run so arena
// size-class waste (LiveWords versus the payload actually stored) and WAL
// amortization (transactions per sync) are measurable per workload.
type Stats struct {
	// LiveKeys is the number of live entries.
	LiveKeys int
	// PendingIntents is the number of keys with an installed intent.
	PendingIntents int
	// Arena is the occupancy of the store's allocator (summed across
	// shards for Sharded).
	Arena ArenaStats
	// WAL holds the attached write-ahead log's counters (zero when the
	// store runs volatile). Filled by the provider set with SetWALStats;
	// Validate cross-checks CheckpointLSN <= DurableLSN (a checkpoint syncs
	// before it returns).
	WAL wal.Stats
}

// Add accumulates other into s (per-shard and per-System aggregation).
func (s *Stats) Add(other Stats) {
	s.LiveKeys += other.LiveKeys
	s.PendingIntents += other.PendingIntents
	s.Arena.CapacityWords += other.Arena.CapacityWords
	s.Arena.BumpedWords += other.Arena.BumpedWords
	s.Arena.FreeListWords += other.Arena.FreeListWords
	s.Arena.LiveWords += other.Arena.LiveWords
	s.WAL.Add(other.WAL)
}

// String renders a compact one-line summary for harness notes.
func (s Stats) String() string {
	out := fmt.Sprintf("keys=%d intents=%d arena[cap=%d bumped=%d free=%d live=%d]",
		s.LiveKeys, s.PendingIntents, s.Arena.CapacityWords,
		s.Arena.BumpedWords, s.Arena.FreeListWords, s.Arena.LiveWords)
	if s.WAL.Txns > 0 || s.WAL.Syncs > 0 {
		out += fmt.Sprintf(" wal[txns=%d frames=%d bytes=%d syncs=%d durable-lsn=%d ckpt-lsn=%d]",
			s.WAL.Txns, s.WAL.Frames, s.WAL.Bytes,
			s.WAL.Syncs, s.WAL.DurableLSN, s.WAL.CheckpointLSN)
	}
	return out
}

// SetWALStats attaches the durability counters' provider — the kv layer's
// Open paths call it with the log writer's Stats. Stats includes
// the provider's snapshot; Validate cross-checks its watermarks.
func (st *Store) SetWALStats(fn func() wal.Stats) { st.walStats = fn }

// SetWALStats attaches the provider on a sharded store (the log is per DB,
// not per shard, so it hangs off the top-level Sharded).
func (sh *Sharded) SetWALStats(fn func() wal.Stats) { sh.walStats = fn }

// Stats gathers the store's counters under tx. Every field is an O(1)
// snapshot of an incrementally maintained counter (the arena's free-word
// totals included — see Arena.Stats), so it is safe to poll from running
// workloads, not just from quiescent reporting paths.
func (st *Store) Stats(tx rhtm.Tx) Stats {
	out := Stats{
		LiveKeys:       st.Len(tx),
		PendingIntents: st.PendingIntents(tx),
		Arena:          st.arena.Stats(tx),
	}
	if st.walStats != nil {
		out.WAL = st.walStats()
	}
	return out
}

// Stats sums every shard's counters plus the DB-level WAL counters.
func (sh *Sharded) Stats(tx rhtm.Tx) Stats {
	var out Stats
	for _, st := range sh.shards {
		out.Add(st.Stats(tx))
	}
	if sh.walStats != nil {
		out.WAL.Add(sh.walStats())
	}
	return out
}

// validateWAL cross-checks a WAL stats snapshot: the checkpoint watermark
// can never pass the durable one.
func validateWAL(s wal.Stats) error {
	if s.CheckpointLSN > s.DurableLSN {
		return fmt.Errorf("store: checkpoint LSN %d beyond durable LSN %d",
			s.CheckpointLSN, s.DurableLSN)
	}
	return nil
}
