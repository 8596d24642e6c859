package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scanDev scans a device's current contents.
func scanDev(t *testing.T, dev Device) ScanResult {
	t.Helper()
	data, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return Scan(data)
}

// TestWriterSequencesByRevision: transactions published out of revision
// order land in the log in revision order — the gate parks the later one
// until its predecessor arrives.
func TestWriterSequencesByRevision(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})

	var wg sync.WaitGroup
	wg.Add(1)
	released := make(chan struct{})
	go func() {
		defer wg.Done()
		// Rev 2 first: must wait for rev 1.
		if err := w.Commit(2, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("b"), Value: []byte("2"), Rev: 2}}); err != nil {
			t.Errorf("commit rev 2: %v", err)
		}
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("rev 2 committed before its predecessor was published")
	case <-time.After(20 * time.Millisecond):
	}
	if err := w.Commit(1, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1}}); err != nil {
		t.Fatalf("commit rev 1: %v", err)
	}
	wg.Wait()

	sr := scanDev(t, dev)
	if len(sr.Txns) != 2 {
		t.Fatalf("scanned %d txns, want 2", len(sr.Txns))
	}
	if sr.Txns[0].Ops[0].Rev != 1 || sr.Txns[1].Ops[0].Rev != 2 {
		t.Fatalf("log order %d,%d — not revision order", sr.Txns[0].Ops[0].Rev, sr.Txns[1].Ops[0].Rev)
	}
	if dev.Size() != dev.synced {
		t.Fatalf("unsynced tail after full-durability commits: %d of %d", dev.synced, dev.Size())
	}
}

// TestWriterMultiPartition: a transaction spanning partitions waits for all
// of its per-partition predecessors.
func TestWriterMultiPartition(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1, 1: 1}, Options{})
	done := make(chan error, 3)
	// Spans both partitions at revs {0:2, 1:1} — needs 0:1 first.
	go func() {
		done <- w.Commit(10, 0, []Op{
			{Part: 0, Kind: OpPut, Key: []byte("x"), Value: []byte("x"), Rev: 2},
			{Part: 1, Kind: OpPut, Key: []byte("y"), Value: []byte("y"), Rev: 1},
		})
	}()
	time.Sleep(10 * time.Millisecond)
	done <- w.Commit(11, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("w"), Value: []byte("w"), Rev: 1}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sr := scanDev(t, dev)
	if len(sr.Txns) != 2 || sr.Txns[0].TxID != 11 || sr.Txns[1].TxID != 10 {
		t.Fatalf("unexpected log order: %+v", sr.Txns)
	}
}

// TestWriterGroupCommitAmortization: with a slow sync barrier and many
// concurrent committers, transactions per sync must grow well past 1 — the
// whole point of group commit. One writer at a time pays the barrier while
// the rest append behind it and share the next one.
func TestWriterGroupCommitAmortization(t *testing.T) {
	run := func(workers int) float64 {
		dev := &MemDevice{SyncDelay: func() { time.Sleep(200 * time.Microsecond) }}
		w := NewWriter(dev, 1, nil, Options{})
		const perWorker = 40
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					key := []byte(fmt.Sprintf("w%d-%d", g, i))
					if err := w.Commit(uint64(g*1000+i), 0, []Op{{Kind: OpPut, Key: key, Value: key}}); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := w.Stats()
		if st.Txns != uint64(workers*perWorker) {
			t.Fatalf("logged %d txns, want %d", st.Txns, workers*perWorker)
		}
		return float64(st.Txns) / float64(st.Syncs)
	}
	single := run(1)
	grouped := run(8)
	t.Logf("txns/sync: 1 worker = %.2f, 8 workers = %.2f", single, grouped)
	if grouped < 2 {
		t.Fatalf("8 concurrent committers amortized only %.2f txns/sync", grouped)
	}
}

// TestWriterOneBarrierAtATime: committers, explicit Sync callers and a
// checkpointer share one writer over a slow barrier, under full and relaxed
// group commit. A barrier never starts while another runs — Sync waits for
// the running one and returns if it covered everything — and every caller's
// transactions end up durable.
func TestWriterOneBarrierAtATime(t *testing.T) {
	for _, every := range []int{1, 4} {
		var inFlight, peak atomic.Int32
		dev := &MemDevice{SyncDelay: func() {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
		}}
		w := NewWriter(dev, 1, nil, Options{SyncEvery: every})
		const workers, perWorker = 6, 30
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					key := []byte(fmt.Sprintf("w%d-%d", g, i))
					if err := w.Commit(uint64(g*1000+i), 0, []Op{{Kind: OpPut, Key: key, Value: key}}); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					// Half the workers flush after every commit, the way a
					// cross-System apply does after its full-mode Commit.
					if g%2 == 0 {
						if err := w.Sync(); err != nil {
							t.Errorf("sync: %v", err)
							return
						}
					}
					if g == 1 && i%10 == 0 {
						if err := w.Checkpoint(func() ([]Op, error) { return nil, nil }); err != nil {
							t.Errorf("checkpoint: %v", err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got != 1 {
			t.Errorf("SyncEvery %d: %d device barriers ran at once, want 1", every, got)
		}
		if st := w.Stats(); st.Txns != workers*perWorker || dev.synced != dev.Size() {
			t.Errorf("SyncEvery %d: %d txns logged, %d of %d bytes synced", every, st.Txns, dev.synced, dev.Size())
		}
	}
}

// TestWriterRelaxedSync: SyncEvery n leaves up to n transactions unsynced;
// an explicit Sync flushes the tail; DurableLSN tracks only synced frames.
func TestWriterRelaxedSync(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{SyncEvery: 4})
	for i := 1; i <= 6; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := w.Commit(uint64(i), 0, []Op{{Kind: OpPut, Key: key, Value: key}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.Stats().Syncs; n != 1 {
		t.Fatalf("6 commits at SyncEvery=4 issued %d syncs, want 1", n)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if dev.synced != dev.Size() {
		t.Fatal("explicit Sync left an unsynced tail")
	}
	st := w.Stats()
	if st.DurableLSN == 0 || st.CheckpointLSN > st.DurableLSN {
		t.Fatalf("stats invariant violated: %+v", st)
	}
}

// TestWriterCheckpointAndScan: recovery replays the last complete
// checkpoint plus the suffix; earlier transactions drop out of the scan.
func TestWriterCheckpointAndScan(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	for i := 1; i <= 3; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := w.Commit(uint64(i), 0, []Op{{Kind: OpPut, Key: key, Value: key, Rev: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	err := w.Checkpoint(func() ([]Op, error) {
		return []Op{
			{Kind: OpPut, Key: []byte("k1"), Value: []byte("k1"), Rev: 1},
			{Kind: OpPut, Key: []byte("k2"), Value: []byte("k2"), Rev: 2},
			{Kind: OpPut, Key: []byte("k3"), Value: []byte("k3"), Rev: 3},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(4, 0, []Op{{Kind: OpPut, Key: []byte("k4"), Value: []byte("k4"), Rev: 4}}); err != nil {
		t.Fatal(err)
	}
	sr := scanDev(t, dev)
	if len(sr.Checkpoint) != 3 {
		t.Fatalf("checkpoint has %d entries, want 3", len(sr.Checkpoint))
	}
	if len(sr.Txns) != 1 || sr.Txns[0].Ops[0].Rev != 4 {
		t.Fatalf("post-checkpoint suffix wrong: %+v", sr.Txns)
	}
	st := w.Stats()
	if st.CheckpointLSN == 0 || st.CheckpointLSN > st.DurableLSN {
		t.Fatalf("checkpoint stats: %+v", st)
	}
}

// TestScanTornTail: cutting the log at every byte yields a clean committed
// prefix — never a partial transaction, and ValidBytes never exceeds the
// cut.
func TestScanTornTail(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	for i := 1; i <= 5; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		ops := []Op{
			{Kind: OpPut, Key: key, Value: key, Rev: uint64(2*i - 1)},
			{Kind: OpDelete, Key: []byte("tmp"), Rev: uint64(2 * i)},
		}
		if err := w.Commit(uint64(i), 0, ops); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := dev.Contents()
	for cut := 0; cut <= len(data); cut++ {
		sr := Scan(data[:cut])
		if sr.ValidBytes > cut {
			t.Fatalf("cut %d: ValidBytes %d", cut, sr.ValidBytes)
		}
		for i, g := range sr.Txns {
			if len(g.Ops) != 2 {
				t.Fatalf("cut %d: txn %d has %d ops — partial transaction survived", cut, i, len(g.Ops))
			}
			if g.TxID != uint64(i+1) {
				t.Fatalf("cut %d: txn order %d at %d", cut, g.TxID, i)
			}
		}
	}
	// Full log: all five.
	if sr := Scan(data); len(sr.Txns) != 5 {
		t.Fatalf("full scan found %d txns", len(sr.Txns))
	}
}

// TestScanMarks: per-transaction marks accumulate, a global mark clears
// resolved history, and MaxTxID survives the clearing.
func TestScanMarks(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	decide := func(txid uint64) {
		ops := []Op{{Part: 1, Kind: OpPut, Key: []byte("k"), Value: []byte("v")}}
		if err := w.Commit(txid, FlagCross, ops); err != nil {
			t.Fatal(err)
		}
	}
	decide(7)
	if err := w.Mark(7, 0); err != nil {
		t.Fatal(err)
	}
	decide(9)
	sr := scanDev(t, dev)
	if !sr.Marks[7] || sr.Marks[9] {
		t.Fatalf("marks: %+v", sr.Marks)
	}
	if len(sr.Txns) != 2 || sr.MaxTxID != 9 {
		t.Fatalf("txns %d maxtxid %d", len(sr.Txns), sr.MaxTxID)
	}
	if err := w.Mark(0, FlagGlobal); err != nil {
		t.Fatal(err)
	}
	decide(12)
	sr = scanDev(t, dev)
	if len(sr.Txns) != 1 || sr.Txns[0].TxID != 12 {
		t.Fatalf("post-global-mark txns: %+v", sr.Txns)
	}
	if sr.MaxTxID != 12 || len(sr.Marks) != 0 {
		t.Fatalf("maxtxid %d marks %v", sr.MaxTxID, sr.Marks)
	}
}

// TestOpenDeviceTruncates: OpenDevice trims a torn tail so appends continue
// from a clean boundary, and NextLSN resumes past the valid prefix.
func TestOpenDeviceTruncates(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	if err := w.Commit(1, 0, []Op{{Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(2, 0, []Op{{Kind: OpPut, Key: []byte("b"), Value: []byte("2"), Rev: 2}}); err != nil {
		t.Fatal(err)
	}
	data, _ := dev.Contents()
	// Tear mid-way through the second group.
	torn := &MemDevice{}
	if err := torn.Append(data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenDevice(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Txns) != 1 {
		t.Fatalf("recovered %d txns, want 1", len(sr.Txns))
	}
	if torn.Size() != sr.ValidBytes {
		t.Fatalf("device %d bytes after open, valid %d", torn.Size(), sr.ValidBytes)
	}
	// A fresh writer continues cleanly.
	w2 := NewWriter(torn, sr.NextLSN, map[int]uint64{0: 2}, Options{})
	if err := w2.Commit(9, 0, []Op{{Kind: OpPut, Key: []byte("c"), Value: []byte("3"), Rev: 2}}); err != nil {
		t.Fatal(err)
	}
	sr2 := scanDev(t, torn)
	if len(sr2.Txns) != 2 || string(sr2.Txns[1].Ops[0].Key) != "c" {
		t.Fatalf("post-reopen log: %+v", sr2.Txns)
	}
	// The frames of the cut group are gone, and so are their LSNs: a replica
	// tailing the reopened log from the start reads one unbroken sequence.
	tl := NewTailer(torn, 0, 1)
	for _, want := range []uint64{1, 9} {
		u, ok, err := tryNext(tl)
		if err != nil || !ok || u.Kind != UnitTxn || u.TxID != want {
			t.Fatalf("tail from the start: unit %+v, ok %v, err %v; want txn %d", u, ok, err, want)
		}
	}
}

// TestCrashImageCuts: MemStorage crash images respect the global append
// order across devices — a byte survives iff appended before the cut.
func TestCrashImageCuts(t *testing.T) {
	stg := NewMemStorage()
	a, _ := stg.Device("a")
	b, _ := stg.Device("b")
	if err := a.Append([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]byte("bb")); err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte("AA")); err != nil {
		t.Fatal(err)
	}
	img := stg.CrashImage(5)
	ia, _ := img.Device("a")
	ib, _ := img.Device("b")
	ca, _ := ia.Contents()
	cb, _ := ib.Contents()
	if string(ca) != "aaaa" || string(cb) != "b" {
		t.Fatalf("crash image at 5: a=%q b=%q", ca, cb)
	}
	if errors.Is(nil, ErrNoWAL) {
		t.Fatal("impossible")
	}
}
