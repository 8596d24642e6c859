package memsim

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// fakeTxn is a minimal CommitterHandle for driving the memory directly.
type fakeTxn struct {
	state  atomic.Uint32 // 0 running, 1 aborted, 2 committed
	reason atomic.Uint32
}

func (f *fakeTxn) TryAbort(r AbortReason) bool {
	if f.state.CompareAndSwap(0, 1) {
		f.reason.Store(uint32(r))
		return true
	}
	return false
}
func (f *fakeTxn) Running() bool   { return f.state.Load() == 0 }
func (f *fakeTxn) TryCommit() bool { return f.state.CompareAndSwap(0, 2) }
func (f *fakeTxn) aborted() bool   { return f.state.Load() == 1 }

// testConfig is a memory of the given size with 64-byte lines,
// requester-wins conflicts and TSX-like snoop behaviour — what sys builds.
func testConfig(words int) Config {
	return Config{Words: words, WordsPerLine: 8, Policy: RequesterWins, NonTxLoadAbortsWriters: true}
}

// mustRegion is AllocRegion for a test that sized the memory for it.
func mustRegion(t testing.TB, m *Memory, size int) Region {
	t.Helper()
	r, err := m.AllocRegion(size)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newMem(t testing.TB, words int) *Memory {
	t.Helper()
	return New(testConfig(words))
}

func TestNewValidatesConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Words: 0, WordsPerLine: 8},
		{Words: -1, WordsPerLine: 8},
		{Words: 64, WordsPerLine: 0},
		{Words: 64, WordsPerLine: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPlainLoadStoreRoundTrip(t *testing.T) {
	m := newMem(t, 128)
	m.Store(5, 42)
	if got := m.Load(5); got != 42 {
		t.Fatalf("Load(5) = %d, want 42", got)
	}
	if got := m.Load(6); got != 0 {
		t.Fatalf("Load(6) = %d, want 0 (fresh word)", got)
	}
}

func TestCASSemantics(t *testing.T) {
	m := newMem(t, 64)
	m.Store(3, 10)
	if !m.CAS(3, 10, 11) {
		t.Fatal("CAS(3, 10, 11) failed, want success")
	}
	if m.CAS(3, 10, 12) {
		t.Fatal("CAS(3, 10, 12) succeeded, want failure")
	}
	if got := m.Load(3); got != 11 {
		t.Fatalf("after CAS, Load(3) = %d, want 11", got)
	}
}

func TestFetchAddReturnsNewValue(t *testing.T) {
	m := newMem(t, 64)
	if got := m.FetchAdd(1, 5); got != 5 {
		t.Fatalf("FetchAdd = %d, want 5", got)
	}
	if got := m.AddInt(1, -2); got != 3 {
		t.Fatalf("AddInt = %d, want 3", got)
	}
}

func TestPlainStoreAbortsMonitors(t *testing.T) {
	m := newMem(t, 64)
	reader, writer := &fakeTxn{}, &fakeTxn{}
	if _, ok := m.SpecLoad(8, reader); !ok {
		t.Fatal("SpecLoad failed for fresh reader")
	}
	if !m.SpecDeclareWrite(16, writer) {
		t.Fatal("SpecDeclareWrite failed for fresh writer")
	}
	m.Store(8, 1)
	m.Store(16, 1)
	if !reader.aborted() {
		t.Error("plain store did not abort speculative reader of the line")
	}
	if !writer.aborted() {
		t.Error("plain store did not abort speculative writer of the line")
	}
	if AbortReason(reader.reason.Load()) != AbortNonTxConflict {
		t.Errorf("reader abort reason = %v, want nontx-conflict", AbortReason(reader.reason.Load()))
	}
}

func TestPlainLoadSnoopsWriters(t *testing.T) {
	m := newMem(t, 64)
	writer := &fakeTxn{}
	if !m.SpecDeclareWrite(8, writer) {
		t.Fatal("SpecDeclareWrite failed")
	}
	m.Load(8)
	if !writer.aborted() {
		t.Error("plain load did not abort speculative writer (TSX snoop model)")
	}
}

func TestPlainLoadSnoopDisabled(t *testing.T) {
	cfg := testConfig(64)
	cfg.NonTxLoadAbortsWriters = false
	m := New(cfg)
	writer := &fakeTxn{}
	if !m.SpecDeclareWrite(8, writer) {
		t.Fatal("SpecDeclareWrite failed")
	}
	m.Load(8)
	if writer.aborted() {
		t.Error("plain load aborted writer despite NonTxLoadAbortsWriters=false")
	}
}

func TestSpecWriteConflictRequesterWins(t *testing.T) {
	m := newMem(t, 64)
	first, second := &fakeTxn{}, &fakeTxn{}
	if _, ok := m.SpecLoad(8, first); !ok {
		t.Fatal("SpecLoad failed")
	}
	if !m.SpecDeclareWrite(8, second) {
		t.Fatal("requester-wins write should succeed")
	}
	if !first.aborted() {
		t.Error("requester-wins: established reader not aborted by new writer")
	}
	if second.aborted() {
		t.Error("requester-wins: requester was aborted")
	}
}

func TestSpecWriteConflictCommitterWins(t *testing.T) {
	cfg := testConfig(64)
	cfg.Policy = CommitterWins
	m := New(cfg)
	first, second := &fakeTxn{}, &fakeTxn{}
	if _, ok := m.SpecLoad(8, first); !ok {
		t.Fatal("SpecLoad failed")
	}
	if m.SpecDeclareWrite(8, second) {
		t.Fatal("committer-wins write into monitored line should fail")
	}
	if first.aborted() {
		t.Error("committer-wins: established reader was aborted")
	}
	if !second.aborted() {
		t.Error("committer-wins: requester not aborted")
	}
}

func TestSpecReadOfSpeculativeWriterAborts(t *testing.T) {
	m := newMem(t, 64)
	writer, reader := &fakeTxn{}, &fakeTxn{}
	if !m.SpecDeclareWrite(8, writer) {
		t.Fatal("SpecDeclareWrite failed")
	}
	if _, ok := m.SpecLoad(8, reader); !ok {
		t.Fatal("requester-wins read should proceed")
	}
	if !writer.aborted() {
		t.Error("speculative read did not abort conflicting speculative writer")
	}
}

func TestReaderUpgradeToWriterNoSelfConflict(t *testing.T) {
	m := newMem(t, 64)
	txn := &fakeTxn{}
	if _, ok := m.SpecLoad(8, txn); !ok {
		t.Fatal("SpecLoad failed")
	}
	if !m.SpecDeclareWrite(8, txn) {
		t.Fatal("upgrade to writer failed")
	}
	if txn.aborted() {
		t.Error("transaction aborted by its own read→write upgrade")
	}
	if n := m.MonitorCount(8); n != 1 {
		t.Errorf("monitor entries after upgrade = %d, want 1 (in-place upgrade)", n)
	}
}

func TestCommitPublishesAtomically(t *testing.T) {
	m := newMem(t, 256)
	w := &fakeTxn{}
	// Two addresses on distinct lines.
	a, b := Addr(8), Addr(64)
	if !m.SpecDeclareWrite(a, w) || !m.SpecDeclareWrite(b, w) {
		t.Fatal("SpecDeclareWrite failed")
	}
	ok := m.CommitTxn(w, []uint64{m.LineOf(b), m.LineOf(a)}, []WriteEntry{{a, 1}, {b, 2}})
	if !ok {
		t.Fatal("CommitTxn failed for running transaction")
	}
	if m.Load(a) != 1 || m.Load(b) != 2 {
		t.Errorf("post-commit values = %d,%d, want 1,2", m.Load(a), m.Load(b))
	}
	if w.state.Load() != 2 {
		t.Error("writer not committed")
	}
	if n := m.MonitorCount(a); n != 0 {
		t.Errorf("monitors remain on line after commit: %d", n)
	}
}

// TestCommitSweepAbortsLateReaders exercises the commit-time monitor sweep in
// isolation: a reader registered on a written line when the commit publishes
// must be aborted, because it may have observed pre-commit values. (Under the
// eager requester-wins policy this situation only arises through races, so the
// test drives CommitTxn directly rather than through SpecDeclareWrite.)
func TestCommitSweepAbortsLateReaders(t *testing.T) {
	m := newMem(t, 256)
	reader := &fakeTxn{}
	a := Addr(8)
	if _, ok := m.SpecLoad(a, reader); !ok {
		t.Fatal("SpecLoad failed")
	}
	w := &fakeTxn{}
	if !m.CommitTxn(w, []uint64{m.LineOf(a)}, []WriteEntry{{a, 7}}) {
		t.Fatal("CommitTxn failed")
	}
	if !reader.aborted() {
		t.Error("reader registered on a committed write line was not aborted")
	}
	if m.Load(a) != 7 {
		t.Errorf("post-commit value = %d, want 7", m.Load(a))
	}
}

func TestCommitAfterAbortFails(t *testing.T) {
	m := newMem(t, 64)
	w := &fakeTxn{}
	if !m.SpecDeclareWrite(8, w) {
		t.Fatal("SpecDeclareWrite failed")
	}
	w.TryAbort(AbortExplicit)
	fp := []uint64{m.LineOf(8)}
	if m.CommitTxn(w, fp, []WriteEntry{{8, 99}}) {
		t.Fatal("CommitTxn succeeded for aborted transaction")
	}
	if m.Load(8) != 0 {
		t.Error("aborted transaction's write reached memory")
	}
}

func TestSpecLoadAfterAbortFails(t *testing.T) {
	m := newMem(t, 64)
	txn := &fakeTxn{}
	txn.TryAbort(AbortExplicit)
	if _, ok := m.SpecLoad(8, txn); ok {
		t.Fatal("SpecLoad succeeded for aborted transaction")
	}
	if m.SpecDeclareWrite(8, txn) {
		t.Fatal("SpecDeclareWrite succeeded for aborted transaction")
	}
}

func TestUnregisterRemovesEntries(t *testing.T) {
	m := newMem(t, 64)
	txn := &fakeTxn{}
	if _, ok := m.SpecLoad(8, txn); !ok {
		t.Fatal("SpecLoad failed")
	}
	txn.TryAbort(AbortExplicit)
	m.Unregister(txn, []uint64{m.LineOf(8)})
	if n := m.MonitorCount(8); n != 0 {
		t.Errorf("monitors after Unregister = %d, want 0", n)
	}
}

// isLockOrdered reports whether ids is in CommitTxn's canonical order: by
// stripe, then by line.
func isLockOrdered(ids []uint64) bool {
	want := slices.Clone(ids)
	slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(a, b) })
	slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(a%nStripes, b%nStripes) })
	return slices.Equal(ids, want)
}

// TestSortFootprint: CommitTxn owns the commit order. Handed an unsorted
// footprint with duplicates it sorts the slice in place, locks each stripe
// once (a second Lock of one stripe would hang here), commits, and
// unregisters from every line.
func TestSortFootprint(t *testing.T) {
	m := newMem(t, 64)
	txn := &fakeTxn{}
	for _, id := range []uint64{5, 1, 3} {
		if _, ok := m.SpecLoad(Addr(id*8), txn); !ok {
			t.Fatalf("SpecLoad on line %d failed", id)
		}
	}
	fp := []uint64{5, 1, 5, 3, 1}
	if !m.CommitTxn(txn, fp, []WriteEntry{{Addr(3 * 8), 9}}) {
		t.Fatal("CommitTxn failed on an unsorted, duplicated footprint")
	}
	if want := []uint64{1, 1, 3, 5, 5}; !slices.Equal(fp, want) {
		t.Errorf("footprint after CommitTxn = %v, want %v", fp, want)
	}
	for _, id := range []uint64{1, 3, 5} {
		if n := m.MonitorCount(Addr(id * 8)); n != 0 {
			t.Errorf("line %d: %d monitors left after commit", id, n)
		}
	}
	if m.Load(3*8) != 9 {
		t.Error("write not published")
	}
	if !m.CommitTxn(&fakeTxn{}, nil, nil) {
		t.Error("CommitTxn with an empty footprint failed")
	}
}

// TestCommitStripeSharedFootprint is the case the stripe table creates: lines
// nStripes apart share a lock. A footprint holding two of them next to a line
// of another stripe must lock the shared stripe once, commit, and unregister
// from each line.
func TestCommitStripeSharedFootprint(t *testing.T) {
	m := newMem(t, (nStripes+4)*8)
	const lo, hi, other = uint64(2), uint64(2 + nStripes), uint64(3)
	txn, bystander := &fakeTxn{}, &fakeTxn{}
	for _, id := range []uint64{hi, other, lo} {
		if _, ok := m.SpecLoad(Addr(id*8), txn); !ok {
			t.Fatalf("SpecLoad on line %d failed", id)
		}
	}
	if _, ok := m.SpecLoad(Addr(hi*8), bystander); !ok {
		t.Fatal("bystander SpecLoad failed")
	}
	fp := []uint64{hi, other, lo}
	if !m.CommitTxn(txn, fp, []WriteEntry{{Addr(lo * 8), 1}, {Addr(other * 8), 2}}) {
		t.Fatal("CommitTxn failed")
	}
	if want := []uint64{lo, hi, other}; !slices.Equal(fp, want) {
		t.Errorf("footprint after CommitTxn = %v, want (stripe, line) order %v", fp, want)
	}
	for _, id := range []uint64{lo, other} {
		if n := m.MonitorCount(Addr(id * 8)); n != 0 {
			t.Errorf("line %d: %d monitors left after commit", id, n)
		}
	}
	if n := m.MonitorCount(Addr(hi * 8)); n != 1 || bystander.aborted() {
		t.Errorf("read-only line %d: %d monitors, bystander aborted=%v; want the bystander alone, running",
			hi, n, bystander.aborted())
	}
	if m.Load(Addr(lo*8)) != 1 || m.Load(Addr(other*8)) != 2 {
		t.Error("writes not published")
	}
}

func TestRegionAllocationDisjointAndAligned(t *testing.T) {
	m := newMem(t, 1024)
	r1 := mustRegion(t, m, 10)
	r2 := mustRegion(t, m, 20)
	if r1.Base%Addr(m.cfg.WordsPerLine) != 0 || r2.Base%Addr(m.cfg.WordsPerLine) != 0 {
		t.Error("regions not line-aligned")
	}
	if r1.Base+Addr(r1.Size) > r2.Base {
		t.Error("regions overlap")
	}
	if r1.Contains(0) {
		t.Error("region contains the null address")
	}
}

func TestRegionExhaustion(t *testing.T) {
	m := newMem(t, 64)
	if _, err := m.AllocRegion(1 << 20); err == nil {
		t.Fatal("AllocRegion of oversized region succeeded")
	}
	if _, err := m.AllocRegion(0); err == nil {
		t.Fatal("AllocRegion(0) succeeded")
	}
}

func TestRegionAddrBoundsPanics(t *testing.T) {
	m := newMem(t, 128)
	r := mustRegion(t, m, 4)
	defer func() {
		if recover() == nil {
			t.Error("Region.Addr out of range did not panic")
		}
	}()
	r.Addr(4)
}

func TestHeapAllocFreeReuse(t *testing.T) {
	m := newMem(t, 4096)
	h, err := NewHeap(m, 1024)
	if err != nil {
		t.Fatal(err)
	}
	a := h.MustAlloc(16)
	m.Store(a, 7)
	h.Free(a, 16)
	b := h.MustAlloc(16)
	if a != b {
		t.Errorf("free list not reused: got %d, want %d", b, a)
	}
	if m.Load(b) != 0 {
		t.Error("recycled block not zeroed")
	}
}

func TestHeapExhaustion(t *testing.T) {
	m := newMem(t, 256)
	h, err := NewHeap(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(64); err == nil {
		t.Fatal("oversized Alloc succeeded")
	}
	if _, err := h.Alloc(-1); err == nil {
		t.Fatal("negative Alloc succeeded")
	}
}

func TestHeapLineAlignmentForLargeBlocks(t *testing.T) {
	m := newMem(t, 4096)
	h, err := NewHeap(m, 2048)
	if err != nil {
		t.Fatal(err)
	}
	h.MustAlloc(3) // misalign the bump pointer
	big := h.MustAlloc(16)
	if uint64(big)%uint64(m.cfg.WordsPerLine) != 0 {
		t.Errorf("block of %d words allocated at %d, not line-aligned", 16, big)
	}
}

func TestAbortReasonStringAndPersistence(t *testing.T) {
	cases := map[AbortReason]string{
		AbortNone:          "none",
		AbortConflict:      "conflict",
		AbortNonTxConflict: "nontx-conflict",
		AbortCapacity:      "capacity",
		AbortExplicit:      "explicit",
		AbortUnsupported:   "unsupported",
		AbortInjected:      "injected",
		AbortReason(99):    "reason(99)",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint32(r), r.String(), want)
		}
	}
	if !AbortCapacity.Persistent() || !AbortUnsupported.Persistent() {
		t.Error("capacity/unsupported must be persistent")
	}
	if AbortConflict.Persistent() || AbortInjected.Persistent() {
		t.Error("conflict/injected must be transient")
	}
}

// TestConcurrentPlainOpsRace hammers plain operations from many goroutines to
// give the race detector a target and to verify FetchAdd atomicity.
func TestConcurrentPlainOpsRace(t *testing.T) {
	m := newMem(t, 64)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.FetchAdd(8, 1)
				m.Load(8)
			}
		}()
	}
	wg.Wait()
	if got := m.Load(8); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
}

// TestConcurrentCommitDisjointLines verifies that commits over disjoint
// footprints proceed in parallel without interference: each transaction's
// write lands and each commits.
func TestConcurrentCommitDisjointLines(t *testing.T) {
	m := newMem(t, 1<<12)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := Addr(8 * (w + 1))
			txn := &fakeTxn{}
			if !m.SpecDeclareWrite(a, txn) {
				errs <- "declare failed"
				return
			}
			if !m.CommitTxn(txn, []uint64{m.LineOf(a)}, []WriteEntry{{a, uint64(w + 1)}}) {
				errs <- "commit failed"
				return
			}
			if m.Load(a) != uint64(w+1) {
				errs <- "value lost"
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCommitAtomicityUnderContention is the core opacity property: concurrent
// speculative readers of a two-word write set must never observe one new and
// one old value and still be allowed to commit.
func TestCommitAtomicityUnderContention(t *testing.T) {
	m := newMem(t, 1024)
	a, b := Addr(8), Addr(512) // distinct lines
	stop := make(chan struct{})
	var inconsistent atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				txn := &fakeTxn{}
				va, ok := m.SpecLoad(a, txn)
				if !ok {
					continue
				}
				vb, ok := m.SpecLoad(b, txn)
				if !ok {
					m.Unregister(txn, []uint64{m.LineOf(a)})
					continue
				}
				fp := []uint64{m.LineOf(b), m.LineOf(a)}
				if m.CommitTxn(txn, fp, nil) {
					if va != vb {
						inconsistent.Add(1)
					}
				} else {
					m.Unregister(txn, fp)
				}
			}
		}()
	}
	for i := uint64(1); i <= 300; i++ {
		w := &fakeTxn{}
		if !m.SpecDeclareWrite(a, w) || !m.SpecDeclareWrite(b, w) {
			continue
		}
		fp := []uint64{m.LineOf(a), m.LineOf(b)}
		if !m.CommitTxn(w, fp, []WriteEntry{{a, i}, {b, i}}) {
			m.Unregister(w, fp)
		}
	}
	close(stop)
	wg.Wait()
	if n := inconsistent.Load(); n != 0 {
		t.Fatalf("%d committed readers observed a torn write set", n)
	}
}

// Property: Load after Store returns the stored value for arbitrary
// address/value pairs within bounds.
func TestQuickStoreLoad(t *testing.T) {
	m := newMem(t, 1<<12)
	f := func(rawAddr uint16, val uint64) bool {
		a := Addr(uint64(rawAddr) % uint64(m.Words()))
		m.Store(a, val)
		return m.Load(a) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any footprint — any ids, any order, duplicates — CommitTxn
// commits without locking a stripe twice and leaves the slice a permutation of
// the input in lock order.
func TestQuickSortFootprint(t *testing.T) {
	m := newMem(t, 64)
	f := func(in []uint64) bool {
		fp := slices.Clone(in)
		if !m.CommitTxn(&fakeTxn{}, fp, nil) || !isLockOrdered(fp) {
			return false
		}
		slices.Sort(in)
		slices.Sort(fp)
		return slices.Equal(in, fp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// quick's ids rarely share a stripe; force collisions too.
	fp := []uint64{7 + 2*nStripes, 7, 9, 7 + nStripes, 9 + nStripes, 7}
	if !m.CommitTxn(&fakeTxn{}, fp, nil) || !isLockOrdered(fp) {
		t.Fatalf("colliding footprint: committed into order %v", fp)
	}
}
