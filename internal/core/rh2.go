package core

import (
	"rhtm/internal/engine"
	"rhtm/internal/memsim"
	"rhtm/internal/sys"
)

// rh2FastWrite logs the written address and stores speculatively
// (Alg. 4 lines 12-15).
func (t *Thread) rh2FastWrite(a memsim.Addr, v uint64) {
	if !t.Txn.Write(a, v) {
		engine.Retry()
	}
	t.fastWrSet = append(t.fastWrSet, a)
}

// srRead is the instrumented read of the fast-path-slow-read mode
// (Alg. 6 lines 11-20).
func (t *Thread) srRead(a memsim.Addr) uint64 {
	htx := t.Txn
	ver, ok := htx.Read(t.sys.VersionAddr(a))
	if !ok {
		engine.Retry()
	}
	t.Stats.MetadataReads++
	v, ok := htx.Read(a)
	if !ok {
		engine.Retry()
	}
	if sys.IsLocked(ver) || sys.UnpackVersion(ver) > t.sw.Version {
		htx.Abort(memsim.AbortExplicit)
		engine.Retry()
	}
	return v
}

// rh2FastPreCommit is the commit-time work of an RH2 fast-path or slow-read
// hardware transaction that wrote (Alg. 4 lines 21-46): verify that no
// committing software transaction is reading the write set (read masks all
// zero) and speculatively lock the write set. The hardware commit then
// publishes data and locks atomically, and rh2FastRelease unlocks.
func (t *Thread) rh2FastPreCommit() bool {
	if len(t.fastWrSet) == 0 {
		return true
	}
	htx := t.Txn
	clear(t.stripes)
	for _, a := range t.fastWrSet {
		s := t.sys.StripeOf(a)
		if _, dup := t.stripes[s]; dup {
			continue
		}
		t.stripes[s] = struct{}{}
		t.wStripes = append(t.wStripes, s)
	}

	// Read-mask check: any bit set means a software transaction is holding
	// its read set visible over one of our write stripes (Alg. 4 lines
	// 25-33). The mask words join our speculative footprint, so a software
	// transaction that sets a bit *after* this check aborts us through
	// coherence — that is the race the visibility mechanism exists for.
	var total uint64
	for _, s := range t.wStripes {
		base := t.sys.MaskBase(s)
		for w := 0; w < t.sys.MaskWords; w++ {
			m, ok := htx.Read(base + memsim.Addr(w))
			if !ok {
				return false
			}
			t.Stats.MetadataReads++
			total |= m
		}
	}
	if total != 0 {
		htx.Abort(memsim.AbortExplicit)
		return false
	}

	// Speculatively lock the write set (Alg. 4 lines 34-46).
	lockWord := sys.LockWord(t.ID)
	for _, s := range t.wStripes {
		va := t.sys.Versions.Addr(s)
		cur, ok := htx.Read(va)
		if !ok {
			return false
		}
		t.Stats.MetadataReads++
		if cur == lockWord {
			continue // already locked by this transaction's own buffered write
		}
		if sys.IsLocked(cur) {
			htx.Abort(memsim.AbortExplicit)
			return false
		}
		if !htx.Write(va, lockWord) {
			return false
		}
		t.Stats.MetadataWrites++
	}
	return true
}

// rh2FastRelease runs after the hardware commit: the write set is now
// published and locked, and installing the next global version releases the
// locks (Alg. 4 lines 48-55). A transaction that wrote nothing locked
// nothing and does not touch the clock.
func (t *Thread) rh2FastRelease() {
	if len(t.wStripes) == 0 {
		return
	}
	next := sys.PackVersion(t.sys.Clock.Next())
	for _, s := range t.wStripes {
		t.sys.Mem.Store(t.sys.Versions.Addr(s), next)
		t.Stats.MetadataWrites++
	}
}

// --- RH2 slow-path commit (Alg. 5 lines 25-47, Alg. 7) ---

// rh2SlowCommit commits the software transaction under the RH2 protocol:
// lock the write set, make the read set visible, revalidate, and write back
// — in a short hardware transaction if possible, in software (raising
// is_all_software_slow_path) if not. Returns false if the transaction must
// restart; the write sets are then untouched in memory and all locks and
// visibility bits have been rolled back.
func (t *Thread) rh2SlowCommit() bool {
	mem := t.sys.Mem
	sw := &t.sw

	// Phase 1: lock the write set, each distinct stripe once.
	clear(t.stripes)
	for _, w := range sw.Writes.Entries {
		s := t.sys.StripeOf(w.Addr)
		if _, dup := t.stripes[s]; dup {
			continue
		}
		t.stripes[s] = struct{}{}
		if !sw.Lock(t.sys.Versions.Addr(s)) {
			return false
		}
	}

	// Phase 2: make the read set visible (Alg. 7 MAKE_VISIBLE_READ_SET).
	// The fetch-and-add on each mask word also aborts, through coherence,
	// every hardware transaction whose commit already read that mask. With
	// more than 64 configured threads, the thread's bit lives in mask word
	// id/64 of the stripe ("more threads require more read masks per
	// stripe", §4.1).
	bit := uint64(1) << uint(t.ID%64)
	t.visible = t.visible[:0]
	clear(t.stripes)
	for _, a := range sw.Reads {
		s := t.sys.StripeOf(a)
		if _, dup := t.stripes[s]; dup {
			continue
		}
		t.stripes[s] = struct{}{}
		ma, _ := t.sys.MaskWordFor(s, t.ID)
		mem.FetchAdd(ma, bit)
		t.Stats.MetadataWrites++
		t.visible = append(t.visible, ma)
	}

	// Phase 3: revalidate the read set.
	if !sw.Validate() {
		t.resetVisibility(bit)
		sw.Restore()
		return false
	}

	// Phase 4: write back atomically (Alg. 5 lines 32-43). Prefer a short
	// write-only hardware transaction; if it cannot commit, raise
	// is_all_software_slow_path (which aborts and re-routes every hardware
	// fast path) and write back with plain stores.
	t.rh2WriteBack()

	// Phase 5: release locks to the next version, drop visibility.
	sw.Release(sys.PackVersion(t.sys.Clock.Next()))
	t.resetVisibility(bit)
	return true
}

// rh2WriteBack publishes the write set: hardware if possible, software
// otherwise. It cannot fail — the transaction is already committed
// logically (validation passed under locks and visibility).
func (t *Thread) rh2WriteBack() {
	htx := t.Txn
	mem := t.sys.Mem
	writes := t.sw.Writes.Entries
	for retries := 0; ; retries++ {
		htx.Begin()
		ok := true
		for _, w := range writes {
			if !htx.Write(w.Addr, w.Val) {
				ok = false
				break
			}
		}
		if ok && htx.Commit() {
			return
		}
		htx.Fini()
		reason := htx.AbortReason()
		if !reason.Persistent() && retries < commitHTMRetries {
			t.Stats.CommitHTMRetries++
			continue
		}
		// All-software write-back: the fetch-and-add both announces the
		// switch and aborts every hardware transaction speculating on the
		// counter word (Alg. 5 lines 39-41).
		t.Stats.AllSoftwareWritebacks++
		mem.FetchAdd(t.sys.AllSoftwareAddr, 1)
		for _, w := range writes {
			mem.Store(w.Addr, w.Val)
		}
		mem.AddInt(t.sys.AllSoftwareAddr, -1)
		return
	}
}

// resetVisibility clears this thread's bit on the mask words it made itself
// visible on (Alg. 7 RESET_VISIBLE_READ_SET).
func (t *Thread) resetVisibility(bit uint64) {
	for _, ma := range t.visible {
		t.sys.Mem.FetchAdd(ma, ^(bit - 1)) // two's-complement subtraction of bit
	}
}
