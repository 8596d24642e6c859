package tl2

import (
	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/scratch"
	"rhtm/internal/sys"
)

// Txn is the one software transaction over a System's stripe metadata: a
// read set, a write buffer, and the commit steps of Alg. 7. A tl2.Thread is
// one. core.Thread holds one for the RH1 slow path (Alg. 2), whose commit
// replaces the steps with one hardware transaction, and for the RH2 commit
// (Alg. 5), which adds read-mask visibility and a hardware write-back around
// them. Callers own the order of the steps and the loop over the write set —
// TL2 loads the version word of every entry, RH2 skips duplicate stripes
// first — so each protocol keeps its exact sequence of simulated accesses.
// Either way each locked stripe's version is stored once, by Release; the
// RH1 commit, which locks nothing, stores it at the stripe's first entry.
type Txn struct {
	sys      *sys.System
	stats    *engine.Stats
	lockWord uint64

	Version uint64          // tx_version: the clock at Begin
	Reads   []memsim.Addr   // every word Read returned
	Writes  engine.WriteSet // callers buffer stores and look reads up here first
	locked  []lockedStripe
}

// lockedStripe remembers a locked version word and its pre-lock contents so
// a failed commit can restore it exactly.
type lockedStripe struct {
	va  memsim.Addr
	old uint64
}

// Init binds the transaction to its System, to the thread id its lock word
// carries, and to the counters its metadata traffic is charged to.
func (x *Txn) Init(s *sys.System, id int, stats *engine.Stats) {
	x.sys, x.stats, x.lockWord = s, stats, sys.LockWord(id)
}

// Begin samples the clock and empties the sets (Alg. 2 lines 1-3). With
// ReadOnly and Aborted below it is most of an engine.SWPath; the engine adds
// its Tx and its Commit.
func (x *Txn) Begin() {
	x.Version = x.sys.Clock.Read()
	x.Reads = x.Reads[:0]
	x.Writes.Reset()
	x.locked = x.locked[:0]
}

// Trim lets go of the sets a transaction grew past scratch.Bound. A
// read-only transaction commits without validating its read set (Alg. 2
// lines 26-28), yet Read records every word: a snapshot of a whole store
// would otherwise stay pinned here.
func (x *Txn) Trim() {
	x.Reads = scratch.Reset(x.Reads)
	x.locked = scratch.Reset(x.locked)
	x.Writes.Trim()
}

// ReadOnly reports that the body buffered no store.
func (x *Txn) ReadOnly() bool { return len(x.Writes.Entries) == 0 }

// Aborted lets the GV6 clock advance past the snapshot that went stale.
func (x *Txn) Aborted() { x.sys.Clock.AdvanceOnAbort(x.Version) }

// Read is the software read of a word the transaction has not written, with
// the version-sandwich consistency check (Alg. 2 lines 9-23). The lock check
// comes from RH2's variant (Alg. 5 line 18); it is vacuous while no
// committer holds locks and necessary while one does.
func (x *Txn) Read(a memsim.Addr) uint64 {
	mem := x.sys.Mem
	va := x.sys.VersionAddr(a)
	before := mem.Load(va)
	v := mem.Load(a)
	after := mem.Load(va)
	x.stats.MetadataReads += 2
	if sys.IsLocked(before) || before != after || sys.UnpackVersion(before) > x.Version {
		engine.Retry()
	}
	x.Reads = append(x.Reads, a)
	return v
}

// Lock locks one stripe of the write set by its version word (Alg. 7
// LOCK_WRITE_SET); on failure it restores every lock taken so far. The
// version a lock replaces must itself be no newer than tx_version: Validate
// skips read-set stripes this transaction holds the lock on, so this check
// is what rules out a commit that slipped in between the body's read of a
// stripe and the lock of it (locking blindly and skipping validation would
// write back over it — a lost update).
func (x *Txn) Lock(va memsim.Addr) bool {
	mem := x.sys.Mem
	cur := mem.Load(va)
	x.stats.MetadataReads++
	if cur == x.lockWord {
		return true // another word of a stripe already locked
	}
	if sys.IsLocked(cur) || sys.UnpackVersion(cur) > x.Version || !mem.CAS(va, cur, x.lockWord) {
		x.Restore()
		return false
	}
	x.stats.MetadataWrites++
	x.locked = append(x.locked, lockedStripe{va: va, old: cur})
	return true
}

// Validate revalidates the read set under the write-set locks (Alg. 7
// REVALIDATE_READ_SET): every stripe read must be unlocked, or locked by
// this transaction, and no newer than tx_version.
func (x *Txn) Validate() bool {
	for _, a := range x.Reads {
		w := x.sys.Mem.Load(x.sys.VersionAddr(a))
		x.stats.MetadataReads++
		if w == x.lockWord {
			continue // we hold the lock: the stripe is also written by us
		}
		if sys.IsLocked(w) || sys.UnpackVersion(w) > x.Version {
			return false
		}
	}
	return true
}

// Restore rolls the locks of a failed commit back to the exact words they
// replaced.
func (x *Txn) Restore() {
	for _, l := range x.locked {
		x.sys.Mem.Store(l.va, l.old)
	}
}

// Release unlocks the write set by installing next, the packed next clock
// version, in every locked stripe (Alg. 5 lines 44-46).
func (x *Txn) Release(next uint64) {
	for _, l := range x.locked {
		x.sys.Mem.Store(l.va, next)
	}
	x.stats.MetadataWrites += uint64(len(x.locked))
}
