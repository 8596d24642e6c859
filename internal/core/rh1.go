package core

import (
	"rhtm/internal/clock"
	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/scratch"
	"rhtm/internal/sys"
)

// TryFast implements engine.FastPath: one hardware attempt, in the mode the
// current global state demands (Alg. 3 lines 2-5, Alg. 4 lines 2-5):
//
//	is_RH2_fallback == 0                          → RH1 fast path
//	is_RH2_fallback  > 0, is_all_software == 0    → RH2 fast path
//	is_all_software  > 0                          → RH2 fast-path-slow-read
//
// For ProtocolRH2 the RH1 level does not exist and the choice is between the
// last two.
func (t *Thread) TryFast(fn func(tx engine.Tx) error) (done bool, err error, reason memsim.AbortReason) {
	mem := t.sys.Mem
	commits := &t.Stats.FastCommits
	switch {
	case mem.Load(t.sys.AllSoftwareAddr) > 0:
		// Fast-path-slow-read (Alg. 6) is the hardware half of the
		// all-software slow-slow path, and its commits count there. Reads
		// carry a TL2-style consistency check against a clock sample taken
		// before the hardware transaction starts (lines 1-3), so they stay
		// correct even while a software transaction writes back with plain
		// stores.
		t.path, commits = pathRH2FastSR, &t.Stats.SlowSlowCommits
		t.sw.Version = t.sys.Clock.Read()
	case t.eng.opts.Protocol == ProtocolRH2 || mem.Load(t.sys.RH2FallbackAddr) > 0:
		t.path = pathRH2Fast
	default:
		t.path = pathRH1Fast
	}
	t.fastWrSet, t.wStripes = t.fastWrSet[:0], t.wStripes[:0]
	done, err, reason = t.Attempt(fn, (*coreTx)(t), commits)
	if done && err == nil {
		t.rh2FastRelease()
	}
	return done, err, reason
}

// Prologue implements engine.HWPath: each mode monitors, for the duration of
// the transaction, the switch whose activation must abort it, by loading it
// speculatively — the activation is a plain fetch-and-add on the counter
// word, which aborts every monitor through coherence.
func (tx *coreTx) Prologue() bool {
	t := (*Thread)(tx)
	switch t.path {
	case pathRH1Fast:
		// is_RH2_fallback (Alg. 3 lines 6-9), then ctx.next_ver ← GVNext()
		// (Alg. 1 line 3). The clock line joins the footprint, so a (rare)
		// clock advance aborts us.
		if !t.monitorZero(t.sys.RH2FallbackAddr) {
			return false
		}
		next, ok := t.speculativeGVNext()
		t.nextVer = next
		return ok
	case pathRH2Fast:
		// is_all_software_slow_path (Alg. 4 lines 6-9).
		return t.monitorZero(t.sys.AllSoftwareAddr)
	}
	return true // slow-read mode runs because that switch is up
}

// monitorZero adds a switch word to the footprint and aborts the attempt if
// the switch is already up.
func (t *Thread) monitorZero(a memsim.Addr) bool {
	v, ok := t.Txn.Read(a)
	if ok && v > 0 {
		t.Txn.Abort(memsim.AbortExplicit)
		return false
	}
	return ok
}

// PreCommit implements engine.HWPath. The RH1 fast path (Alg. 1) commits
// with no further work; the RH2 modes check masks and lock first.
func (tx *coreTx) PreCommit() bool {
	t := (*Thread)(tx)
	return t.path == pathRH1Fast || t.rh2FastPreCommit()
}

// rh1FastWrite is the RH1 fast path's minimally instrumented store: update
// the stripe version to next_ver, then write the value (Alg. 1 lines 6-9).
// Both stores are speculative and publish atomically at commit, so the
// version is stored at the attempt's first write to the stripe only: a
// repeat would store the value the write buffer already holds.
func (t *Thread) rh1FastWrite(a memsim.Addr, v uint64) {
	htx := t.Txn
	if va := t.sys.VersionAddr(a); !htx.Wrote(va) {
		if !htx.Write(va, sys.PackVersion(t.nextVer)) {
			engine.Retry()
		}
		t.Stats.MetadataWrites++
	}
	if !htx.Write(a, v) {
		engine.Retry()
	}
}

// speculativeGVNext performs GVNext inside the current hardware transaction
// and returns the version to install. Under GV6 (the paper's choice) it is a
// speculative *read* of the clock plus one — no store, so concurrent
// hardware transactions sharing the clock line do not conflict. Under GV5
// (ablation) GVNext must actually increment the clock, which puts the clock
// line in every writer's speculative write set and serializes them — the
// cost the paper's GV6 choice avoids (§2.2).
func (t *Thread) speculativeGVNext() (next uint64, ok bool) {
	htx := t.Txn
	clk := t.sys.Clock
	sample, ok := htx.Read(clk.Addr())
	if !ok {
		return 0, false
	}
	t.Stats.MetadataReads++
	next = clk.NextFromSample(sample)
	if clk.Mode() == clock.GV5 {
		if !htx.Write(clk.Addr(), next) {
			return 0, false
		}
		t.Stats.MetadataWrites++
	}
	return next, true
}

// --- the mixed (mostly software) slow path ---

// Begin implements engine.SWPath (Alg. 2 lines 1-3).
func (tx *coreTx) Begin() {
	t := (*Thread)(tx)
	t.path = pathSlow
	t.sw.Begin()
}

// ReadOnly implements engine.SWPath: read-only transactions commit
// immediately (Alg. 2 lines 26-28), every read was validated against
// tx_version when performed.
func (tx *coreTx) ReadOnly() bool { return tx.sw.ReadOnly() }

// Commit implements engine.SWPath with the protocol-appropriate commit.
func (tx *coreTx) Commit() bool {
	t := (*Thread)(tx)
	if t.eng.opts.Protocol == ProtocolRH2 {
		return t.rh2SlowCommit()
	}
	return t.rh1SlowCommit()
}

// Aborted implements engine.SWPath.
func (tx *coreTx) Aborted() { tx.sw.Aborted() }

// Trim implements engine.SWPath. The RH2 commit's stripe set indexed the
// software sets, so it goes when one of them does; the hardware path's
// sets are bounded by the HTM capacity and stay.
func (tx *coreTx) Trim() {
	t := (*Thread)(tx)
	if scratch.Over(t.sw.Reads) || scratch.Over(t.sw.Writes.Entries) {
		t.stripes = make(map[int]struct{}, 32)
	}
	t.sw.Trim()
	t.visible = scratch.Reset(t.visible)
}

// rh1SlowCommit is the heart of RH1 (Alg. 2 lines 25-50): a single hardware
// transaction that revalidates the read set and performs the write-back.
// There are no locks; obstruction freedom follows. Returns false if the
// transaction must be retried from scratch.
func (t *Thread) rh1SlowCommit() bool {
	htx := t.Txn
	for {
		htx.Begin()
		committed, validationFailed := t.rh1CommitAttempt()
		if committed {
			return true
		}
		htx.Fini() // park the aborted hardware transaction
		if validationFailed {
			// The snapshot is stale; the whole transaction restarts.
			return false
		}
		reason := htx.AbortReason()
		if reason.Persistent() {
			// The commit transaction's footprint (read-set metadata +
			// write-back) exceeds hardware capacity: fall back to RH2 for
			// this commit (Alg. 3 lines 35-39).
			t.Stats.RH2Fallbacks++
			mem := t.sys.Mem
			mem.FetchAdd(t.sys.RH2FallbackAddr, 1)
			ok := t.rh2SlowCommit()
			mem.AddInt(t.sys.RH2FallbackAddr, -1)
			return ok
		}
		// Contention: restart the commit hardware transaction. The
		// validation inside the new attempt re-checks everything.
		t.Stats.CommitHTMRetries++
	}
}

// rh1CommitAttempt executes the body of the commit hardware transaction:
// read-set revalidation, then write-back with version install (Alg. 2
// lines 29-43). It reports (committed, validationFailed); when both are
// false the hardware transaction aborted for an environmental reason and
// htx.AbortReason explains it.
func (t *Thread) rh1CommitAttempt() (committed, validationFailed bool) {
	htx := t.Txn
	// Read-set revalidation: every read stripe must still be unlocked and
	// no newer than tx_version.
	for _, a := range t.sw.Reads {
		w, ok := htx.Read(t.sys.VersionAddr(a))
		if !ok {
			return false, false
		}
		t.Stats.MetadataReads++
		if sys.IsLocked(w) || sys.UnpackVersion(w) > t.sw.Version {
			htx.Abort(memsim.AbortExplicit)
			return false, true
		}
	}
	// next_ver ← GVNext() inside the hardware transaction (Alg. 2 line 37).
	nextVer, ok := t.speculativeGVNext()
	if !ok {
		return false, false
	}
	next := sys.PackVersion(nextVer)
	// Write-back: install the new version and the value for every write
	// (Alg. 2 lines 38-43). As on the fast path, a stripe's version is
	// stored at its first entry only — the second documented deviation
	// from the pseudo-code, an equivalent one: the write set publishes
	// atomically, so a repeat would store what the buffer already holds.
	for _, w := range t.sw.Writes.Entries {
		if va := t.sys.VersionAddr(w.Addr); !htx.Wrote(va) {
			// The stripe must be unlocked — the first documented
			// deviation from the paper's pseudo-code. In the paper's
			// presentation of RH1 in isolation no locks exist, so the
			// check is vacuous; once the RH2 fallback is integrated, a
			// concurrent RH2 committer may hold locks, and an RH1 commit
			// that blindly overwrote a locked stripe version would corrupt
			// the lock protocol. The check costs one speculative load per
			// write stripe, on the line the version store then claims.
			ver, ok := htx.Read(va)
			if !ok {
				return false, false
			}
			t.Stats.MetadataReads++
			if sys.IsLocked(ver) {
				htx.Abort(memsim.AbortExplicit)
				return false, true
			}
			if !htx.Write(va, next) {
				return false, false
			}
			t.Stats.MetadataWrites++
		}
		if !htx.Write(w.Addr, w.Val) {
			return false, false
		}
	}
	if !htx.Commit() {
		return false, false
	}
	return true, false
}
