package wire

import (
	"bytes"
	"testing"

	"rhtm/kv"
)

// FuzzServerFrame hammers the decoder with arbitrary byte streams: any
// input must either fail with a classified error or decode into a message
// whose canonical re-encoding reproduces the consumed bytes exactly. The
// canonical-bytes property is what lets the server echo ids and forward
// payloads without ever re-interpreting them.
func FuzzServerFrame(f *testing.F) {
	seeds := []Msg{
		{ID: 1, Kind: KindHello},
		{ID: 2, Kind: KindGet, Key: []byte("key")},
		{ID: 3, Kind: KindPut, Key: []byte("k"), Value: []byte("v"), Lease: 9},
		{ID: 4, Kind: KindPutIf, Key: []byte("k"), Value: nil, Rev: 7, Lease: 0},
		{ID: 5, Kind: KindBatch, Ops: []kv.Op{
			{Kind: kv.OpGet, Key: []byte("a")},
			{Kind: kv.OpPut, Key: []byte("b"), Value: []byte("x"), Lease: 2},
			{Kind: kv.OpDelete, Key: []byte("c")},
		}},
		{ID: 6, Kind: KindTxn,
			Conds: []Cond{{Key: []byte("a"), Rev: 1}, {Key: []byte("b"), Rev: 0}},
			Ops:   []kv.Op{{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("z")}}},
		{ID: 7, Kind: KindScan, Flags: FlagWithRev, Key: []byte("a"), End: nil, Rev: 100},
		{ID: 7, Kind: KindTxn, Flags: FlagRanges,
			Conds:  []Cond{{Key: []byte("a"), Rev: 1}},
			Ops:    []kv.Op{{Kind: kv.OpPut, Key: []byte("t"), Value: []byte("1")}},
			Ranges: []Range{{Start: []byte("a"), End: []byte("b")}, {Start: nil, End: nil}}},
		{ID: 8, Kind: KindWatch, Key: nil, Rev: 12},
		{ID: 9, Kind: KindErr, Code: CodeConflict, Text: "kv: transaction conflict"},
		{ID: 10, Kind: KindEntries, Flags: FlagFinal, Entries: []Entry{
			{Key: []byte("k"), Value: []byte{}, Rev: 3},
			{Key: []byte("l"), Value: nil, Rev: 4},
		}},
		{ID: 11, Kind: KindResults, Results: []Result{
			{Code: CodeOK, Value: []byte("v")},
			{Code: CodeNotFound, Value: nil},
		}},
		{ID: 12, Kind: KindEvent, Code: uint8(kv.EventLost)},
		{ID: 13, Kind: KindValue, Value: bytes.Repeat([]byte{0xAB}, 300), Rev: 1 << 40},
	}
	for _, m := range seeds {
		frame, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// A deliberately damaged variant seeds the rejection paths.
		if len(frame) > 12 {
			mut := append([]byte(nil), frame...)
			mut[12] ^= 0xFF
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := Decode(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v (msg %+v)", err, m)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("decode/encode not canonical:\nin  % x\nout % x\nmsg %+v", b[:n], re, m)
		}
		// A second decode of the canonical bytes must agree on the kind and
		// id (full structural equality is implied by canonical bytes).
		m2, n2, err := Decode(re)
		if err != nil || n2 != n || m2.Kind != m.Kind || m2.ID != m.ID {
			t.Fatalf("re-decode diverged: n=%d err=%v", n2, err)
		}
	})
}

// FuzzAdminFrame hammers the tracing and admin extensions: traced frames
// (the u64 trace word between header and payload), the empty-payload
// admin kinds, and their damaged variants must hold the same invariant as
// every other frame — classified rejection or a canonical round trip that
// preserves the trace word bit-exactly.
func FuzzAdminFrame(f *testing.F) {
	seeds := []Msg{
		{ID: 1, Kind: KindTraceDump},
		{ID: 2, Kind: KindHealth},
		{ID: 3, Kind: KindGet, Flags: FlagTraced, Trace: 0xDEADBEEF, Key: []byte("key")},
		{ID: 4, Kind: KindPut, Flags: FlagTraced, Trace: 1, Key: []byte("k"), Value: []byte("v")},
		{ID: 5, Kind: KindOK, Flags: FlagTraced, Trace: 1 << 50, Rev: 9},
		{ID: 6, Kind: KindErr, Flags: FlagTraced, Trace: 7, Code: CodeConflict, Text: "kv: transaction conflict"},
		{ID: 7, Kind: KindValue, Flags: FlagTraced | FlagAbsent, Trace: 42},
		{ID: 8, Kind: KindTxn, Flags: FlagTraced, Trace: 3,
			Conds: []Cond{{Key: []byte("a"), Rev: 1}},
			Ops:   []kv.Op{{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("z")}}},
		{ID: 9, Kind: KindBatch, Flags: FlagTraced, Trace: 11, Ops: []kv.Op{
			{Kind: kv.OpGet, Key: []byte("a")},
			{Kind: kv.OpDelete, Key: []byte("c")},
		}},
		{ID: 10, Kind: KindScan, Flags: FlagTraced | FlagWithRev, Trace: 13, Key: []byte("a"), Rev: 100},
	}
	for _, m := range seeds {
		frame, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if len(frame) > 12 {
			mut := append([]byte(nil), frame...)
			mut[12] ^= 0xFF
			f.Add(mut)
		}
		// A variant cut inside the trace word seeds the truncation path.
		if m.Flags&FlagTraced != 0 && len(frame) > frameHeader+bodyHeader+4 {
			f.Add(append([]byte(nil), frame[:frameHeader+bodyHeader+4]...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := Decode(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if m.Flags&FlagTraced == 0 && m.Trace != 0 {
			t.Fatalf("untraced frame decoded a trace word: %+v", m)
		}
		re, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v (msg %+v)", err, m)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("decode/encode not canonical:\nin  % x\nout % x\nmsg %+v", b[:n], re, m)
		}
		m2, n2, err := Decode(re)
		if err != nil || n2 != n || m2.Kind != m.Kind || m2.ID != m.ID || m2.Trace != m.Trace {
			t.Fatalf("re-decode diverged: n=%d err=%v trace %d vs %d", n2, err, m2.Trace, m.Trace)
		}
	})
}
