package engine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rhtm/internal/memsim"
)

func TestStatsAddAndTotals(t *testing.T) {
	a := Stats{FastCommits: 1, SlowCommits: 2, SlowSlowCommits: 3, ReadOnlyCommits: 4,
		FastAborts: 5, SlowAborts: 6, RH2Fallbacks: 7, Reads: 8, Writes: 9,
		MetadataReads: 10, MetadataWrites: 11, CommitHTMRetries: 12,
		AllSoftwareWritebacks: 13, UserErrors: 14}
	a.FastAbortsByReason[memsim.AbortConflict] = 2
	b := a
	a.Add(b)
	if a.FastCommits != 2 || a.SlowCommits != 4 || a.SlowSlowCommits != 6 || a.ReadOnlyCommits != 8 {
		t.Fatalf("Add commits wrong: %+v", a)
	}
	if a.Commits() != 20 {
		t.Fatalf("Commits = %d, want 20", a.Commits())
	}
	if a.Aborts() != 22 {
		t.Fatalf("Aborts = %d, want 22", a.Aborts())
	}
	if a.FastAbortsByReason[memsim.AbortConflict] != 4 {
		t.Fatalf("reason breakdown not added: %v", a.FastAbortsByReason)
	}
	if a.RH2Fallbacks != 14 || a.AllSoftwareWritebacks != 26 || a.UserErrors != 28 {
		t.Fatalf("Add misc wrong: %+v", a)
	}
}

func TestAbortRatio(t *testing.T) {
	var s Stats
	if s.AbortRatio() != 0 {
		t.Fatal("empty stats should have ratio 0")
	}
	s.FastCommits = 10
	s.FastAborts = 5
	if got := s.AbortRatio(); got != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{FastCommits: 3, SlowCommits: 1}
	str := s.String()
	for _, want := range []string{"commits=4", "fast=3", "slow=1"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestRunBodyPassesThroughErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err, aborted := RunBody(func(tx Tx) error { return sentinel }, nil)
	if !errors.Is(err, sentinel) || aborted {
		t.Fatalf("err=%v aborted=%v, want sentinel,false", err, aborted)
	}
}

func TestRunBodyCatchesRetry(t *testing.T) {
	err, aborted := RunBody(func(tx Tx) error {
		Retry()
		return nil
	}, nil)
	if err != nil || !aborted {
		t.Fatalf("got err=%v aborted=%v", err, aborted)
	}
}

func TestRunBodyPropagatesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	_, _ = RunBody(func(tx Tx) error { panic("user bug") }, nil)
}

func TestBackoffBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for attempt := 0; attempt < 20; attempt++ {
		Backoff(rng, attempt)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("20 backoffs took %v, want bounded", elapsed)
	}
}
