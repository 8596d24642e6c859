package enginetest

import (
	"testing"

	"rhtm/internal/engine"
	"rhtm/internal/memsim"
)

// remoteAborter is a fake speculative writer of one line. Under requester-
// wins the next speculative load of that line aborts it, and its TryAbort —
// called by memsim in the middle of that load — aborts the loading
// transaction in turn, the way a remote agent would. The load still returns
// its value, so the victim's owner acts on it with a transaction that is
// already dead: the window in which its own Txn.Abort is a no-op.
type remoteAborter struct {
	victim memsim.Handle
	fired  bool
}

func (f *remoteAborter) TryAbort(memsim.AbortReason) bool {
	if f.fired {
		return false
	}
	f.fired = true
	f.victim.TryAbort(memsim.AbortConflict)
	return true
}

func (f *remoteAborter) Running() bool { return !f.fired }

// CheckRemoteAbortWindow runs one hardware attempt of fn on path p, with a
// remote abort forced into the attempt's first speculative load of word —
// the caller has arranged memory so that the path then aborts explicitly on
// what it read there. The attempt must fail with the hardware's reason, not
// the path's, and must leave nothing registered: a store to word afterwards
// may not disturb the thread's next attempt.
func CheckRemoteAbortWindow(t *testing.T, mem *memsim.Memory, h *engine.HWWorker, p engine.HWPath, word memsim.Addr, fn func(tx engine.Tx) error) {
	t.Helper()
	fake := &remoteAborter{victim: h.Txn}
	if !mem.SpecDeclareWrite(word, fake) {
		t.Fatal("could not arm the window")
	}
	var commits uint64
	done, _, reason := h.Attempt(fn, p, &commits)
	mem.Unregister(fake, []uint64{mem.LineOf(word)})
	if !fake.fired {
		t.Fatal("the attempt never loaded the armed word")
	}
	if done || commits != 0 || reason != memsim.AbortConflict {
		t.Fatalf("Attempt = done %v, %d commits, reason %v; want a failed attempt aborted by conflict", done, commits, reason)
	}
	if n := mem.MonitorCount(word); n != 0 {
		t.Fatalf("MonitorCount = %d after the attempt, want 0: its monitor leaked", n)
	}
	h.Txn.Begin()
	mem.Store(word, mem.Load(word))
	if !h.Txn.Running() {
		t.Fatalf("next attempt aborted (%v) by a store to a line only the failed one read", h.Txn.AbortReason())
	}
	h.Txn.Abort(memsim.AbortExplicit)
}
