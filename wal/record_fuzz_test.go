package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// The frame codec is the boundary where committed transactions become
// durable bytes; FuzzWALRecord hammers the round trip with arbitrary
// payloads, the golden test pins the exact on-device encoding (a silent
// format change would orphan every existing log), and the corruption tests
// pin the exact failure mode of every damaged byte: ErrCorrupt, never a
// bogus decode.

func FuzzWALRecord(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), []byte("key"), []byte("value"), uint64(3), uint64(0), uint32(0))
	f.Add(uint64(2), uint64(0), uint8(FlagCross), []byte(nil), []byte(nil), uint64(0), uint64(9), uint32(5))
	f.Add(uint64(1<<63), uint64(1<<40), uint8(3), bytes.Repeat([]byte{0xff}, 300), []byte{}, uint64(1<<62), uint64(1), uint32(1<<20))
	f.Add(uint64(0), uint64(0), uint8(0), []byte("\x00"), bytes.Repeat([]byte{0}, 77), uint64(1), uint64(2), uint32(3))
	f.Fuzz(func(t *testing.T, lsn, txid uint64, flags uint8, key, value []byte, rev, lease uint64, part uint32) {
		if len(key) > 1<<16 {
			key = key[:1<<16]
		}
		if len(value) > 1<<16 {
			value = value[:1<<16]
		}
		// Decode returns nil for an empty key or value.
		if len(key) == 0 {
			key = nil
		}
		if len(value) == 0 {
			value = nil
		}
		put := Op{Part: int(part), Kind: OpPut, Key: key, Value: value, Rev: rev, Lease: lease}
		del := Op{Part: int(part), Kind: OpDelete, Key: key, Rev: rev}
		recs := []Record{
			{Kind: KindCheckpointBegin},
			{Kind: KindCheckpointEntry, Op: put},
			{Kind: KindCheckpointEnd, TxID: 1},
			{Kind: KindMark, Flags: flags, TxID: txid},
			{Kind: KindBegin, Flags: flags, TxID: txid},
			{Kind: KindOp, Flags: flags, TxID: txid, Op: put},
			{Kind: KindOp, Flags: flags, TxID: txid, Op: del},
			{Kind: KindCommit, Flags: flags, TxID: txid},
		}
		// The codec half numbers the frames from the fuzzed lsn; the Scan
		// half from 1, where every log starts.
		var buf, scanBuf []byte
		groupStart, commitStart := 0, 0
		for i := range recs {
			switch recs[i].Kind {
			case KindBegin:
				groupStart = len(scanBuf)
			case KindCommit:
				commitStart = len(scanBuf)
			}
			r := recs[i]
			r.LSN = uint64(i + 1)
			scanBuf = Encode(scanBuf, r)
			recs[i].LSN = lsn + uint64(i)
			buf = Encode(buf, recs[i])
		}
		pos := 0
		for i, want := range recs {
			got, n, err := Decode(buf[pos:])
			if err != nil {
				t.Fatalf("record %d: decode: %v", i, err)
			}
			pos += n
			if got.Kind != want.Kind || got.LSN != want.LSN || got.Flags != want.Flags {
				t.Fatalf("record %d: header %+v, want %+v", i, got, want)
			}
			switch want.Kind {
			case KindBegin, KindCommit, KindMark, KindCheckpointEnd:
				if got.TxID != want.TxID {
					t.Fatalf("record %d: txid %d, want %d", i, got.TxID, want.TxID)
				}
			case KindOp, KindCheckpointEntry:
				if got.Op.Part != want.Op.Part || got.Op.Kind != want.Op.Kind ||
					got.Op.Rev != want.Op.Rev || got.Op.Lease != want.Op.Lease ||
					!bytes.Equal(got.Op.Key, want.Op.Key) || !bytes.Equal(got.Op.Value, want.Op.Value) {
					t.Fatalf("record %d: op %+v, want %+v", i, got.Op, want.Op)
				}
			}
		}
		if pos != len(buf) {
			t.Fatalf("decoded %d of %d bytes", pos, len(buf))
		}
		// The whole log scans: its checkpoint, its mark (a global one clears
		// the marks before it, here none) and its one group.
		global := flags&FlagGlobal != 0
		sr := Scan(scanBuf)
		if sr.ValidBytes != len(scanBuf) || sr.NextLSN != uint64(len(recs)+1) || len(sr.Checkpoint) != 1 ||
			len(sr.Txns) != 1 || sr.Txns[0].TxID != txid || len(sr.Txns[0].Ops) != 2 || sr.Marks[txid] == global {
			t.Fatalf("scan of the whole log: %+v", sr)
		}
		// Every strict prefix of the commit frame is a clean tear: the log
		// ends before the group it would close.
		for _, cut := range []int{commitStart, commitStart + 1, len(scanBuf) - 1} {
			if sr := Scan(scanBuf[:cut]); sr.ValidBytes != groupStart || len(sr.Txns) != 0 {
				t.Fatalf("scan of %d-byte tear: %d valid bytes, %d txns; want %d, 0", cut, sr.ValidBytes, len(sr.Txns), groupStart)
			}
		}
		// readUnit inverts appendUnit for every unit kind.
		for _, u := range []Unit{
			{Kind: UnitTxn, Flags: flags, TxID: txid, Txn: TxnGroup{TxID: txid, Cross: flags&FlagCross != 0, Ops: []Op{put, del}}},
			{Kind: UnitCheckpoint, Flags: flags, Checkpoint: []Op{put}},
			{Kind: UnitMark, Flags: flags, TxID: txid},
			{Kind: UnitEpoch, Flags: flags, TxID: txid, Meta: value},
		} {
			b, last := appendUnit(nil, &u, lsn)
			got, err := readUnit(b, lsn)
			u.EndLSN, u.EndOff = last, len(b)
			if err != nil || !reflect.DeepEqual(got, u) {
				t.Fatalf("unit round trip: %+v, %v; want %+v", got, err, u)
			}
		}
	})
}

// TestWALRecordGoldenVectors pins the exact frame bytes: u32 body length,
// u32 CRC-32C, u64 LSN, kind, flags, payload — all little-endian. A change
// here is a log-format break.
func TestWALRecordGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		want []byte
	}{
		{
			name: "begin",
			rec:  Record{Kind: KindBegin, LSN: 1, TxID: 2},
			want: []byte{
				0x12, 0x00, 0x00, 0x00, // body length 18
				0xe4, 0x4e, 0x62, 0x9f, // crc32c
				0x01, 0, 0, 0, 0, 0, 0, 0, // lsn 1
				0x01,                      // kind begin
				0x00,                      // flags
				0x02, 0, 0, 0, 0, 0, 0, 0, // txid 2
			},
		},
		{
			name: "op-put",
			rec: Record{Kind: KindOp, Flags: FlagCross, LSN: 3, TxID: 2,
				Op: Op{Part: 1, Kind: OpPut, Key: []byte("k"), Value: []byte("vv"), Rev: 5, Lease: 6}},
			want: []byte{
				0x2a, 0x00, 0x00, 0x00, // body length 42
				0xc9, 0x2c, 0x60, 0x20, // crc32c
				0x03, 0, 0, 0, 0, 0, 0, 0, // lsn 3
				0x02,          // kind op
				0x01,          // flags cross
				0x01, 0, 0, 0, // part 1
				0x00,                      // put
				0x05, 0, 0, 0, 0, 0, 0, 0, // rev 5
				0x06, 0, 0, 0, 0, 0, 0, 0, // lease 6
				0x01, 0, 0, 0, // key length
				'k',
				0x02, 0, 0, 0, // value length
				'v', 'v',
			},
		},
		{
			name: "mark-global",
			rec:  Record{Kind: KindMark, Flags: FlagGlobal, LSN: 9, TxID: 0},
			want: []byte{
				0x12, 0x00, 0x00, 0x00,
				0xaf, 0x8b, 0xee, 0x2b, // crc32c
				0x09, 0, 0, 0, 0, 0, 0, 0,
				0x07, // kind mark
				0x02, // flags global
				0x00, 0, 0, 0, 0, 0, 0, 0,
			},
		},
	}
	for _, c := range cases {
		got := Encode(nil, c.rec)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: encoded\n % x\nwant\n % x", c.name, got, c.want)
		}
		back, n, err := Decode(c.want)
		if err != nil || n != len(c.want) {
			t.Errorf("%s: decode: n=%d err=%v", c.name, n, err)
			continue
		}
		// Op frames carry no txid — the enclosing group supplies it.
		wantTxID := c.rec.TxID
		if c.rec.Kind == KindOp || c.rec.Kind == KindCheckpointEntry {
			wantTxID = 0
		}
		if back.Kind != c.rec.Kind || back.LSN != c.rec.LSN || back.TxID != wantTxID {
			t.Errorf("%s: round trip %+v", c.name, back)
		}
	}
}

// TestDecodeAllocs pins decoding in place: an op frame decodes with no
// allocation, its key and value windows on the frame clipped to their own
// lengths, and a zero-length key, value or meta decodes as nil.
func TestDecodeAllocs(t *testing.T) {
	frame := Encode(nil, Record{Kind: KindOp, LSN: 7,
		Op: Op{Part: 2, Kind: OpPut, Key: []byte("key!"), Value: []byte("value"), Rev: 11, Lease: 1}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decode of an op frame: %v allocs, want 0", allocs)
	}
	rec, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(frame, []byte("key!")); &rec.Op.Key[0] != &frame[i] ||
		cap(rec.Op.Key) != len(rec.Op.Key) || cap(rec.Op.Value) != len(rec.Op.Value) {
		t.Errorf("key and value are not clipped windows on the frame: caps %d, %d", cap(rec.Op.Key), cap(rec.Op.Value))
	}

	for _, empty := range [][]byte{nil, {}} {
		frame := Encode(nil, Record{Kind: KindOp, LSN: 1, Op: Op{Kind: OpDelete, Key: empty, Value: empty}})
		frame = Encode(frame, Record{Kind: KindEpoch, LSN: 2, TxID: 1, Meta: empty})
		op, n, err := Decode(frame)
		if err != nil || op.Op.Key != nil || op.Op.Value != nil {
			t.Errorf("empty %#v: op decoded key %#v value %#v (err %v)", empty, op.Op.Key, op.Op.Value, err)
		}
		ep, _, err := Decode(frame[n:])
		if err != nil || ep.Meta != nil {
			t.Errorf("empty %#v: epoch decoded meta %#v (err %v)", empty, ep.Meta, err)
		}
	}
}

// TestEncodeAllocs pins encoding in place: an op frame encoded into a
// buffer with room allocates nothing, so a logged commit adds no
// allocation per op.
func TestEncodeAllocs(t *testing.T) {
	rec := Record{Kind: KindOp, LSN: 7,
		Op: Op{Part: 2, Kind: OpPut, Key: []byte("key!"), Value: []byte("value"), Rev: 11, Lease: 1}}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = Encode(buf[:0], rec)
	}); allocs != 0 {
		t.Errorf("Encode of an op frame: %v allocs, want 0", allocs)
	}
}

// TestWALRecordCorruption: every single-byte corruption of a frame must be
// rejected with ErrCorrupt (or shorten into ErrTorn via the length word) —
// never decode into a different record.
func TestWALRecordCorruption(t *testing.T) {
	frame := Encode(nil, Record{Kind: KindOp, LSN: 7, TxID: 3,
		Op: Op{Part: 2, Kind: OpPut, Key: []byte("key!"), Value: []byte("value"), Rev: 11, Lease: 1}})
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		rec, n, err := Decode(mut)
		if err == nil {
			t.Fatalf("byte %d corrupted: decoded %+v (%d bytes) instead of failing", i, rec, n)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
			t.Fatalf("byte %d corrupted: err = %v, want ErrCorrupt or ErrTorn", i, err)
		}
	}
	// A clean tear at every boundary short of the full frame is ErrTorn.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := Decode(frame[:cut]); !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}
}
