package htm

import (
	"testing"

	"rhtm/internal/memsim"
)

// TestFalseSharingAtLineGranularity pins the DESIGN.md ablation knob #2:
// with 8-word conflict lines, two transactions touching *different* words of
// the same line conflict (false sharing, as on real hardware); with 1-word
// lines they do not.
func TestFalseSharingAtLineGranularity(t *testing.T) {
	run := func(wordsPerLine int) (conflict bool) {
		cfg := memConfig(256)
		cfg.WordsPerLine = wordsPerLine
		m := memsim.New(cfg)
		a := NewTxn(m, DefaultConfig())
		b := NewTxn(m, DefaultConfig())
		a.Begin()
		b.Begin()
		// Adjacent words: same 8-word line, different 1-word lines.
		if _, ok := a.Read(8); !ok {
			t.Fatal("a.Read failed")
		}
		if !b.Write(9, 1) {
			t.Fatal("b.Write failed")
		}
		conflict = !a.Running()
		a.Abort(memsim.AbortExplicit)
		b.Abort(memsim.AbortExplicit)
		return conflict
	}
	if !run(8) {
		t.Error("8-word lines: adjacent-word accesses did not false-share")
	}
	if run(1) {
		t.Error("1-word lines: adjacent-word accesses conflicted")
	}
}

// TestCommitterWinsEndToEnd verifies that the committer-wins policy resolves
// the same collision by aborting the requester instead.
func TestCommitterWinsEndToEnd(t *testing.T) {
	cfg := memConfig(256)
	cfg.Policy = memsim.CommitterWins
	m := memsim.New(cfg)
	a := NewTxn(m, DefaultConfig())
	b := NewTxn(m, DefaultConfig())
	a.Begin()
	b.Begin()
	if _, ok := a.Read(8); !ok {
		t.Fatal("a.Read failed")
	}
	if b.Write(8, 1) {
		t.Fatal("committer-wins: requester write succeeded over established reader")
	}
	b.Fini()
	if !a.Running() {
		t.Fatal("committer-wins: established reader was aborted")
	}
	if r := b.AbortReason(); r != memsim.AbortConflict {
		t.Fatalf("requester reason = %v, want conflict", r)
	}
	if !a.Commit() {
		t.Fatal("survivor failed to commit")
	}
}
