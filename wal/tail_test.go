package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestEpochFrameRoundTrip: KindEpoch survives Encode/Decode and Scan keeps
// the newest epoch/membership.
// tryNext is Next without blocking: ok is false when no complete unit is
// readable yet.
func tryNext(t *Tailer) (Unit, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tryLocked()
}

func TestEpochFrameRoundTrip(t *testing.T) {
	blob := []byte(`{"epoch":3,"primary":"sys-01"}`)
	buf := Encode(nil, Record{Kind: KindEpoch, LSN: 1, TxID: 3, Meta: blob})
	rec, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) || rec.Kind != KindEpoch || rec.TxID != 3 || !bytes.Equal(rec.Meta, blob) {
		t.Fatalf("roundtrip mismatch: %+v consumed %d of %d", rec, n, len(buf))
	}

	// Empty membership blobs are legal.
	buf2 := Encode(nil, Record{Kind: KindEpoch, LSN: 2, TxID: 4})
	if rec, _, err = Decode(buf2); err != nil || rec.TxID != 4 || rec.Meta != nil {
		t.Fatalf("empty blob roundtrip: %+v, %v", rec, err)
	}

	sr := Scan(append(buf, buf2...))
	if sr.Epoch != 4 || sr.Membership != nil {
		t.Fatalf("scan epoch %d membership %q, want 4/nil", sr.Epoch, sr.Membership)
	}
	if sr.ValidBytes != len(buf)+len(buf2) || sr.NextLSN != 3 {
		t.Fatalf("scan cursor %d/%d", sr.ValidBytes, sr.NextLSN)
	}
}

// TestWriterAppendEpoch: the epoch frame is appended synced and a scan of
// the device sees it alongside ordinary traffic.
func TestWriterAppendEpoch(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	if err := w.Commit(1, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEpoch(7, []byte("members")); err != nil {
		t.Fatal(err)
	}
	if dev.Size() != dev.synced {
		t.Fatalf("epoch frame not covered by a sync: %d of %d", dev.synced, dev.Size())
	}
	sr := scanDev(t, dev)
	if sr.Epoch != 7 || string(sr.Membership) != "members" || len(sr.Txns) != 1 {
		t.Fatalf("scan: epoch %d membership %q txns %d", sr.Epoch, sr.Membership, len(sr.Txns))
	}
	st := w.Stats()
	if st.LastLSN == 0 || st.DurableLSN != st.LastLSN {
		t.Fatalf("stats: last %d durable %d", st.LastLSN, st.DurableLSN)
	}
}

// TestWriterFence: a fenced writer rejects everything with ErrFenced, never
// touches the device again, and counts the rejections.
func TestWriterFence(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	if err := w.Commit(1, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1}}); err != nil {
		t.Fatal(err)
	}
	before := dev.Size()
	w.Fence()
	if err := w.Commit(2, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("b"), Value: []byte("2"), Rev: 2}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("commit after fence: %v", err)
	}
	if err := w.Mark(9, 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("mark after fence: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrFenced) {
		t.Fatalf("sync after fence: %v", err)
	}
	if err := w.AppendEpoch(2, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("epoch after fence: %v", err)
	}
	if dev.Size() != before {
		t.Fatalf("fenced writer appended %d bytes", dev.Size()-before)
	}
	if got := w.Stats().Fenced; got != 4 {
		t.Fatalf("fenced rejections %d, want 4", got)
	}
	// The pre-fence commit is still intact — fencing cuts the future, not
	// the past.
	if sr := scanDev(t, dev); len(sr.Txns) != 1 {
		t.Fatalf("scan after fence: %d txns", len(sr.Txns))
	}
}

// TestWriterFenceWakesParked: a transaction parked behind a revision hole
// is woken and failed by Fence instead of hanging forever, and its Commit
// takes it off the gate as it returns: a dead writer keeps no pointer to
// the caller's ops.
func TestWriterFenceWakesParked(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	done := make(chan error, 1)
	go func() {
		// Rev 2 with rev 1 never published: gate-parked.
		done <- w.Commit(2, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("b"), Value: []byte("2"), Rev: 2}})
	}()
	select {
	case err := <-done:
		t.Fatalf("parked commit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Fence()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("parked commit: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("parked commit not woken by fence")
	}
	w.mu.Lock()
	parked := len(w.parked)
	w.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d transactions still parked after the fenced commit returned", parked)
	}
}

// TestTailerStreamsUnits: a tailer decodes commits, marks, checkpoints, and
// epoch frames as whole units in log order, with a consistent cursor.
func TestTailerStreamsUnits(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	tl := NewTailer(dev, 0, 1)
	w.SetOnAppend(tl.Kick)

	if err := w.Commit(1, 0, []Op{
		{Part: 0, Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1},
		{Part: 0, Kind: OpDelete, Key: []byte("a"), Rev: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Mark(1, FlagGlobal); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(func() ([]Op, error) {
		return []Op{{Part: 0, Kind: OpPut, Key: []byte("k"), Value: []byte("v"), Rev: 2}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEpoch(1, []byte("m")); err != nil {
		t.Fatal(err)
	}

	u, err := tl.Next()
	if err != nil || u.Kind != UnitTxn || u.TxID != 1 || len(u.Txn.Ops) != 2 || u.EndLSN != 4 {
		t.Fatalf("unit 1: %+v, %v", u, err)
	}
	u, err = tl.Next()
	if err != nil || u.Kind != UnitMark || u.TxID != 1 || u.Flags&FlagGlobal == 0 {
		t.Fatalf("unit 2: %+v, %v", u, err)
	}
	u, err = tl.Next()
	if err != nil || u.Kind != UnitCheckpoint || len(u.Checkpoint) != 1 {
		t.Fatalf("unit 3: %+v, %v", u, err)
	}
	u, err = tl.Next()
	if err != nil || u.Kind != UnitEpoch || u.TxID != 1 || string(u.Meta) != "m" {
		t.Fatalf("unit 4: %+v, %v", u, err)
	}
	if u.EndOff != dev.Size() || u.EndLSN != w.Stats().LastLSN {
		t.Fatalf("cursor %d/%d after draining device of %d bytes", u.EndOff, u.EndLSN, dev.Size())
	}
	if _, ok, err := tryNext(tl); ok || err != nil {
		t.Fatalf("tryNext at EOF: ok=%v err=%v", ok, err)
	}
}

// TestTailerBlocksUntilAppend: Next blocks at the readable end and the
// writer's append hook wakes it.
func TestTailerBlocksUntilAppend(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	tl := NewTailer(dev, 0, 1)
	w.SetOnAppend(tl.Kick)

	got := make(chan Unit, 1)
	go func() {
		u, err := tl.Next()
		if err != nil {
			t.Errorf("next: %v", err)
		}
		got <- u
	}()
	select {
	case u := <-got:
		t.Fatalf("Next returned on an empty log: %+v", u)
	case <-time.After(20 * time.Millisecond):
	}
	if err := w.Commit(1, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-got:
		if u.Kind != UnitTxn || u.TxID != 1 {
			t.Fatalf("unit: %+v", u)
		}
	case <-time.After(time.Second):
		t.Fatal("tailer not woken by append")
	}

	// Close wakes a blocked reader with ErrTailerClosed.
	errs := make(chan error, 1)
	go func() {
		_, err := tl.Next()
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tl.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrTailerClosed) {
			t.Fatalf("after close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Next not woken by Close")
	}
}

// TestTailerResumesFromCursor: a fresh tailer at a unit's EndOff/EndLSN
// cursor sees exactly the suffix.
func TestTailerResumesFromCursor(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	for i := uint64(1); i <= 3; i++ {
		if err := w.Commit(i, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte{byte(i)}, Value: []byte{byte(i)}, Rev: i}}); err != nil {
			t.Fatal(err)
		}
	}
	tl := NewTailer(dev, 0, 1)
	u, err := tl.Next()
	if err != nil || u.TxID != 1 {
		t.Fatalf("first unit: %+v, %v", u, err)
	}
	resumed := NewTailer(dev, u.EndOff, u.EndLSN+1)
	for want := uint64(2); want <= 3; want++ {
		u, err = resumed.Next()
		if err != nil || u.TxID != want {
			t.Fatalf("resumed unit: %+v, %v (want txid %d)", u, err, want)
		}
	}
}

// TestTailerRejectsBadStream: a corrupt frame below the readable end is a
// permanent ErrBadStream, not a silent tail.
func TestTailerRejectsBadStream(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	if err := w.Commit(1, 0, []Op{{Part: 0, Kind: OpPut, Key: []byte("a"), Value: []byte("1"), Rev: 1}}); err != nil {
		t.Fatal(err)
	}
	// Append garbage that parses as a complete frame with a bad checksum.
	if err := dev.Append([]byte{4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dev, 0, 1)
	if u, err := tl.Next(); err != nil || u.Kind != UnitTxn {
		t.Fatalf("good prefix: %+v, %v", u, err)
	}
	if _, err := tl.Next(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("corrupt frame: %v", err)
	}
	// The failure is permanent.
	if _, _, err := tryNext(tl); !errors.Is(err, ErrBadStream) {
		t.Fatalf("after failure: %v", err)
	}
}

// TestTailerUnitsOutliveNext: a unit's keys and values alias the tailer's
// buffer, so the tailer must never rewrite bytes it has handed out. Units
// are held across later Next calls — two from one refresh, one whose bytes
// landed in two refreshes (torn, then completed), and a checkpoint — and
// must read back unchanged once the stream is drained.
func TestTailerUnitsOutliveNext(t *testing.T) {
	put := func(key string, rev uint64) Op {
		return Op{Kind: OpPut, Key: []byte(key), Value: bytes.Repeat([]byte(key), 8), Rev: rev}
	}
	want := []Unit{
		{Kind: UnitTxn, TxID: 1, Txn: TxnGroup{TxID: 1, Ops: []Op{put("key-a", 1)}}},
		{Kind: UnitTxn, TxID: 2, Txn: TxnGroup{TxID: 2, Ops: []Op{put("key-b", 2)}}},
		{Kind: UnitTxn, TxID: 3, Txn: TxnGroup{TxID: 3, Ops: []Op{put("key-c", 3), put("key-d", 4)}}},
		{Kind: UnitCheckpoint, Checkpoint: []Op{put("key-e", 4), put("key-f", 4)}},
	}
	var log []byte
	var ends []int // byte offset just past each unit
	lsn := uint64(1)
	for i := range want {
		var last uint64
		log, last = appendUnit(log, &want[i], lsn)
		want[i].EndLSN, lsn = last, last+1
		ends = append(ends, len(log))
	}
	for i := range want {
		want[i].EndOff = ends[i]
	}

	dev := &MemDevice{}
	tl := NewTailer(dev, 0, 1)
	var got []Unit
	next := func() {
		t.Helper()
		u, ok, err := tryNext(tl)
		if err != nil || !ok {
			t.Fatalf("unit %d: ok=%v err=%v", len(got)+1, ok, err)
		}
		got = append(got, u)
	}
	// Refresh 1: units 1 and 2 whole, and the front half of unit 3.
	torn := (ends[1] + ends[2]) / 2
	if err := dev.Append(log[:torn]); err != nil {
		t.Fatal(err)
	}
	next()
	next()
	if _, ok, err := tryNext(tl); ok || err != nil {
		t.Fatalf("torn unit 3: ok=%v err=%v, want a wait", ok, err)
	}
	// Refresh 2: the rest of unit 3, then the checkpoint.
	if err := dev.Append(log[torn:]); err != nil {
		t.Fatal(err)
	}
	next()
	next()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("unit %d after draining the stream:\n got %+v\nwant %+v", i+1, got[i], want[i])
		}
	}
}

// TestDeviceContentsFrom: the incremental read capability matches a suffix
// of Contents on both paths (multi-segment mem device).
func TestDeviceContentsFrom(t *testing.T) {
	dev := &MemDevice{}
	for _, p := range [][]byte{[]byte("abc"), []byte("defg"), []byte("h")} {
		if err := dev.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	full, _ := dev.Contents()
	for off := 0; off <= len(full); off++ {
		got, err := dev.ContentsFrom(off)
		if err != nil {
			t.Fatalf("ContentsFrom(%d): %v", off, err)
		}
		if !bytes.Equal(got, full[off:]) {
			t.Fatalf("ContentsFrom(%d) = %q, want %q", off, got, full[off:])
		}
	}
	if _, err := dev.ContentsFrom(len(full) + 1); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

// TestContentsFromMatchesContents is the property a faster offset lookup
// must keep: ContentsFrom(off) == Contents()[off:] at every offset, over
// random appends (empty ones included), Truncates that cut a segment or
// land between two, and CrashImages with a torn last segment.
func TestContentsFromMatchesContents(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	stg := NewMemStorage()
	d, _ := stg.Device("d")
	dev := d.(*MemDevice)
	var model []byte
	check := func(what string, dev *MemDevice, model []byte) {
		t.Helper()
		full, _ := dev.Contents()
		if !bytes.Equal(full, model) || dev.Size() != len(model) {
			t.Fatalf("%s: device holds %d bytes, model %d", what, len(full), len(model))
		}
		for off := 0; off <= len(model); off++ {
			got, err := dev.ContentsFrom(off)
			if err != nil || !bytes.Equal(got, model[off:]) {
				t.Fatalf("%s: ContentsFrom(%d) of %d: %d bytes, err %v; want %d",
					what, off, len(model), len(got), err, len(model)-off)
			}
		}
		if _, err := dev.ContentsFrom(len(model) + 1); err == nil {
			t.Fatalf("%s: read past the end succeeded", what)
		}
	}
	grow := func(n int) {
		for i := 0; i < n; i++ {
			p := make([]byte, rng.Intn(6))
			rng.Read(p)
			if err := dev.Append(p); err != nil {
				t.Fatal(err)
			}
			model = append(model, p...)
		}
	}
	check("empty", dev, model)
	for round := 0; round < 6; round++ {
		grow(100 + rng.Intn(100))
		check("grown", dev, model)
		n := rng.Intn(len(model) + 1)
		if round == 3 {
			n = 0
		}
		if err := dev.Truncate(n); err != nil {
			t.Fatal(err)
		}
		model = model[:n]
		check("truncated", dev, model)
	}
	grow(100)
	// Sequence stamps keep counting across Truncate, so find the cut that
	// leaves keep bytes from the segments' own stamps; most such cuts tear a
	// segment.
	full, _ := dev.Contents()
	for _, keep := range []int{len(full), len(full) - 3, len(full) / 2, 1, 0} {
		cut, left := uint64(0), keep
		for _, seg := range dev.segs {
			if left <= len(seg.buf) {
				cut = seg.seq + uint64(left)
				break
			}
			left -= len(seg.buf)
		}
		img, _ := stg.CrashImage(cut).Device("d")
		check("crash image", img.(*MemDevice), slices.Clone(full[:keep]))
	}
}

// TestContentsFromTailCost pins what a tail read costs: one new frame read
// from the end of a long log takes about as long as from the end of a short
// one. A device that walks its segments from the first append to reach the
// offset reads a log of 2¹⁸ appends a thousand times slower than one of 2⁸,
// under the device lock the commit path's Append and Sync also take.
func TestContentsFromTailCost(t *testing.T) {
	frame := make([]byte, 48)
	tailRead := func(appends int) time.Duration {
		dev := &MemDevice{}
		for i := 0; i < appends; i++ {
			dev.Append(frame)
		}
		samples := make([]time.Duration, 101)
		for i := range samples {
			off := dev.Size()
			dev.Append(frame)
			start := time.Now()
			got, err := dev.ContentsFrom(off)
			samples[i] = time.Since(start)
			if err != nil || len(got) != len(frame) {
				t.Fatalf("tail read after %d appends: %d bytes, err %v", appends+i, len(got), err)
			}
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	short, long := tailRead(1<<8), tailRead(1<<18)
	t.Logf("median tail read: %v after 2^8 appends, %v after 2^18", short, long)
	// The floor keeps a coarse host clock reading the short log as 0 from
	// failing a long one that reads one tick.
	if long > 8*max(short, 100*time.Nanosecond) {
		t.Fatalf("tail read after 2^18 appends takes %v, after 2^8 %v: cost grows with the log", long, short)
	}
}
