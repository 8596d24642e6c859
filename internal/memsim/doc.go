// Package memsim implements the simulated shared memory that every other
// component of this repository runs on top of.
//
// The paper's protocols (RH1, RH2, TL2, Standard HyTM, ...) coordinate
// through hardware cache coherence: a best-effort hardware transaction is
// aborted whenever another agent — a concurrent hardware transaction or a
// plain (non-transactional) store — touches a cache line the transaction has
// speculatively read or written. Go has no hardware transactional memory, so
// this package models the relevant slice of a coherent memory system in
// software:
//
//   - Memory is a flat array of 64-bit words. All shared state, including TM
//     metadata (stripe versions, read masks, the global clock), lives inside
//     one Memory so that conflicts on metadata and data are detected by the
//     same mechanism, exactly as they would be by real coherence hardware.
//
//   - Words are grouped into lines (default 8 words = 64 bytes). The line is
//     the conflict-detection granularity, mirroring cache-line granularity in
//     real HTM; this deliberately reproduces false-sharing aborts.
//
//   - Each line has a monitor set: the set of in-flight speculative
//     transactions (htm.Txn values, seen here through the Handle interface)
//     that have read or declared a write to the line. Plain stores abort every
//     monitor of the line; plain loads abort speculative writers (a read snoop
//     downgrades an exclusively-held speculative line, which kills the
//     speculation on real hardware — configurable via Config).
//
//   - Speculative writes are buffered by the owning transaction and published
//     atomically by CommitTxn, which locks the transaction's entire footprint
//     (all read and written lines, in one canonical order), re-checks that the
//     transaction is still running, sweeps conflicting monitors, applies the
//     writes, and only then marks the transaction committed. Holding the whole
//     footprint makes the commit a single linearization point: no concurrent
//     agent can observe a partially applied write set, and no store to a read
//     line can slip "into the middle" of the commit. This is the all-or-nothing
//     property the RH1 protocol's uninstrumented fast-path reads rely on.
//
// Locked accesses serialize on a fixed table of nStripes mutexes, a line's
// being the one at its id modulo nStripes. A stripe also holds the monitor
// entries of its lines, each carrying its line id: conflicts are detected per
// line exactly, and only the lock is shared. One access takes no lock —
// SpecReload, a transaction's re-read of a line it already monitors. Every
// agent that changes a word aborts the line's monitors first and stores
// atomically after, so a word loaded before Running() still reads true has
// not changed since the transaction registered.
package memsim
