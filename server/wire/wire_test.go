package wire

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"rhtm/kv"
)

// The wire codec is the boundary where client requests become server
// transactions; the golden test pins the exact frame bytes (a silent format
// change would strand every deployed client), the corruption tests pin the
// failure mode of every damaged byte — ErrCorrupt or ErrTorn, never a bogus
// decode — and the oversize tests pin the allocation bound on both sides.

// TestWireGoldenVectors pins the exact frame bytes: u32 body length, u32
// CRC-32C, u64 request id, kind, flags, payload — all little-endian, byte
// fields length-prefixed with 0xFFFFFFFF meaning nil. A change here is a
// protocol break.
func TestWireGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		msg  Msg
		want []byte
	}{
		{
			name: "get",
			msg:  Msg{ID: 7, Kind: KindGet, Key: []byte("k")},
			want: []byte{
				0x0f, 0x00, 0x00, 0x00, // body length 15
				0x83, 0x5f, 0x12, 0x70, // crc32c
				0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 7
				0x02,                   // kind get
				0x00,                   // flags
				0x01, 0x00, 0x00, 0x00, // key length 1
				0x6b, // 'k'
			},
		},
		{
			name: "put",
			msg:  Msg{ID: 8, Kind: KindPut, Key: []byte("k"), Value: []byte("vv"), Lease: 5},
			want: []byte{
				0x1d, 0x00, 0x00, 0x00, // body length 29
				0xca, 0xab, 0x22, 0x06, // crc32c
				0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 8
				0x04,                   // kind put
				0x00,                   // flags
				0x01, 0x00, 0x00, 0x00, // key length 1
				0x6b,                   // 'k'
				0x02, 0x00, 0x00, 0x00, // value length 2
				0x76, 0x76, // "vv"
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lease 5
			},
		},
		{
			name: "ok",
			msg:  Msg{ID: 9, Kind: KindOK, Rev: 3},
			want: []byte{
				0x12, 0x00, 0x00, 0x00, // body length 18
				0x00, 0x81, 0xce, 0x03, // crc32c
				0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 9
				0x15,                                           // kind ok
				0x00,                                           // flags
				0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rev 3
			},
		},
		{
			name: "err",
			msg:  Msg{ID: 10, Kind: KindErr, Code: CodeNotFound, Text: "gone"},
			want: []byte{
				0x13, 0x00, 0x00, 0x00, // body length 19
				0xaa, 0xe6, 0xf1, 0xda, // crc32c
				0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 10
				0x16,                   // kind err
				0x00,                   // flags
				0x02,                   // code not-found
				0x04, 0x00, 0x00, 0x00, // text length 4
				0x67, 0x6f, 0x6e, 0x65, // "gone"
			},
		},
		{
			// A delete event with a nil value: the nil length sentinel is what
			// distinguishes "value elided by the commit log" from empty.
			name: "event-nil-value",
			msg:  Msg{ID: 11, Kind: KindEvent, Code: uint8(kv.EventDelete), Key: []byte("k"), Rev: 12},
			want: []byte{
				0x1c, 0x00, 0x00, 0x00, // body length 28
				0x6c, 0xbc, 0xd8, 0x82, // crc32c
				0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 11
				0x1a,                   // kind event
				0x00,                   // flags
				0x01,                   // event kind delete
				0x01, 0x00, 0x00, 0x00, // key length 1
				0x6b,                   // 'k'
				0xff, 0xff, 0xff, 0xff, // value nil
				0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rev 12
			},
		},
		{
			name: "txn",
			msg: Msg{ID: 12, Kind: KindTxn,
				Conds: []Cond{{Key: []byte("a"), Rev: 2}},
				Ops:   []kv.Op{{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("b")}}},
			want: []byte{
				0x32, 0x00, 0x00, 0x00, // body length 50
				0xe9, 0x9a, 0xf7, 0x3c, // crc32c
				0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 12
				0x09,                   // kind txn
				0x00,                   // flags
				0x01, 0x00, 0x00, 0x00, // 1 condition
				0x01, 0x00, 0x00, 0x00, // cond key length 1
				0x61,                                           // 'a'
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // cond rev 2
				0x01, 0x00, 0x00, 0x00, // 1 op
				0x01,                   // op put
				0x01, 0x00, 0x00, 0x00, // op key length 1
				0x61,                   // 'a'
				0x01, 0x00, 0x00, 0x00, // op value length 1
				0x62,                                           // 'b'
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // op lease 0
			},
		},
		{
			name: "txn-ranges",
			msg: Msg{ID: 15, Kind: KindTxn, Flags: FlagRanges,
				Conds:  []Cond{{Key: []byte("a"), Rev: 0}},
				Ranges: []Range{{Start: []byte("a"), End: nil}}},
			want: []byte{
				0x2c, 0x00, 0x00, 0x00, // body length 44
				0x9d, 0x35, 0x3f, 0x33, // crc32c
				0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 15
				0x09,                   // kind txn
				0x10,                   // flags: ranges
				0x01, 0x00, 0x00, 0x00, // 1 condition
				0x01, 0x00, 0x00, 0x00, // cond key length 1
				0x61,                                           // 'a'
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // cond rev 0 (absent)
				0x00, 0x00, 0x00, 0x00, // 0 ops
				0x01, 0x00, 0x00, 0x00, // 1 range
				0x01, 0x00, 0x00, 0x00, // range start length 1
				0x61,                   // 'a'
				0xff, 0xff, 0xff, 0xff, // range end nil (unbounded)
			},
		},
	}
	for _, c := range cases {
		got, err := Encode(nil, c.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: encoded\n % x\nwant\n % x", c.name, got, c.want)
		}
		back, n, err := Decode(c.want)
		if err != nil || n != len(c.want) {
			t.Errorf("%s: decode: n=%d err=%v", c.name, n, err)
			continue
		}
		re, err := Encode(nil, back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", c.name, err)
		}
		if !bytes.Equal(re, c.want) {
			t.Errorf("%s: decode/encode not canonical:\n % x\nwant\n % x", c.name, re, c.want)
		}
	}
}

// TestWireFollowerRead pins the follower-read pair: the request carries
// Key + Rev (the staleness floor), the response Value + Rev + Lease (the
// watermark), and an absent key keeps its watermark under FlagAbsent.
func TestWireFollowerRead(t *testing.T) {
	msgs := []Msg{
		{ID: 20, Kind: KindFollowerGet, Key: []byte("k"), Rev: 7},
		{ID: 21, Kind: KindFollowerValue, Value: []byte("v"), Rev: 7, Lease: 9},
		{ID: 22, Kind: KindFollowerValue, Flags: FlagAbsent, Lease: 9},
	}
	for _, want := range msgs {
		frame, err := Encode(nil, want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		got, n, err := Decode(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("%v: decode: n=%d err=%v", want.Kind, n, err)
		}
		if got.ID != want.ID || got.Kind != want.Kind || got.Flags != want.Flags ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) ||
			got.Rev != want.Rev || got.Lease != want.Lease {
			t.Errorf("%v: round trip got %+v want %+v", want.Kind, got, want)
		}
	}
}

// TestWireCorruption: every single-byte corruption of a frame must be
// rejected with ErrCorrupt (or shorten into ErrTorn via the length word) —
// never decode into a different message.
func TestWireCorruption(t *testing.T) {
	frame, err := Encode(nil, Msg{ID: 3, Kind: KindPutIf,
		Key: []byte("key!"), Value: []byte("value"), Rev: 11, Lease: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		m, n, err := Decode(mut)
		if err == nil {
			t.Fatalf("byte %d corrupted: decoded %+v (%d bytes) instead of failing", i, m, n)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
			t.Fatalf("byte %d corrupted: err = %v, want ErrCorrupt or ErrTorn", i, err)
		}
	}
	// A clean tear at every boundary short of the full frame is ErrTorn (or
	// ErrCorrupt when the cut truncates the length word itself).
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := Decode(frame[:cut]); !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}
}

// TestWireRejections pins the explicit rejection paths: truncated payloads
// behind a valid checksum, trailing garbage, impossible counts, unknown
// kinds, and the frame size bound on both the encode and decode side.
func TestWireRejections(t *testing.T) {
	// reframe recomputes length and checksum over a mutated body, so the
	// rejection exercised is the payload validation, not the CRC.
	reframe := func(mutate func(body []byte) []byte) []byte {
		frame, err := Encode(nil, Msg{ID: 1, Kind: KindOK, Rev: 7})
		if err != nil {
			t.Fatal(err)
		}
		body := mutate(append([]byte(nil), frame[frameHeader:]...))
		out := make([]byte, frameHeader, frameHeader+len(body))
		out = append(out, body...)
		le := func(off int, v uint32) {
			out[off] = byte(v)
			out[off+1] = byte(v >> 8)
			out[off+2] = byte(v >> 16)
			out[off+3] = byte(v >> 24)
		}
		le(0, uint32(len(body)))
		le(4, crcOf(body))
		return out
	}

	cases := []struct {
		name  string
		frame []byte
	}{
		{"truncated-payload", reframe(func(b []byte) []byte { return b[:len(b)-3] })},
		{"trailing-garbage", reframe(func(b []byte) []byte { return append(b, 0xEE) })},
		{"unknown-kind", reframe(func(b []byte) []byte { b[8] = byte(kindMax); return b })},
		{"bogus-count", func() []byte {
			f, err := Encode(nil, Msg{ID: 2, Kind: KindBatch,
				Ops: []kv.Op{{Kind: kv.OpGet, Key: []byte("k")}}})
			if err != nil {
				t.Fatal(err)
			}
			// Overwrite the op count with an absurd value and refit the CRC.
			body := append([]byte(nil), f[frameHeader:]...)
			body[bodyHeader] = 0xff
			body[bodyHeader+1] = 0xff
			body[bodyHeader+2] = 0xff
			body[bodyHeader+3] = 0x7f
			out := make([]byte, frameHeader, frameHeader+len(body))
			out = append(out, body...)
			out[0] = byte(len(body))
			crc := crcOf(body)
			out[4], out[5], out[6], out[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
			return out
		}()},
		{"wraparound-length", func() []byte {
			f, err := Encode(nil, Msg{ID: 3, Kind: KindGet, Key: []byte("key")})
			if err != nil {
				t.Fatal(err)
			}
			// A length word just under the nil sentinel: int(n) would turn
			// negative on 32-bit platforms and slip a signed bound check,
			// so this must reject by unsigned comparison, not panic.
			body := append([]byte(nil), f[frameHeader:]...)
			body[bodyHeader] = 0xfe
			body[bodyHeader+1] = 0xff
			body[bodyHeader+2] = 0xff
			body[bodyHeader+3] = 0xff
			out := make([]byte, frameHeader, frameHeader+len(body))
			out = append(out, body...)
			out[0] = byte(len(body))
			crc := crcOf(body)
			out[4], out[5], out[6], out[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
			return out
		}()},
		{"oversized-header", []byte{
			0xff, 0xff, 0xff, 0x07, // body length 1<<27-1 > MaxFrameBody
			0x00, 0x00, 0x00, 0x00,
		}},
		{"undersized-header", []byte{
			0x02, 0x00, 0x00, 0x00, // body length 2 < body header
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		}},
	}
	for _, c := range cases {
		if m, n, err := Decode(c.frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %+v n=%d err=%v, want ErrCorrupt", c.name, m, n, err)
		}
	}

	// The encode side refuses to build a frame the peer would reject.
	if _, err := Encode(nil, Msg{Kind: KindPut, Key: []byte("k"),
		Value: make([]byte, MaxFrameBody)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized encode: err = %v, want ErrFrameTooLarge", err)
	}
}

func crcOf(body []byte) uint32 { return crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) }

// The envelope's header and body-header sizes, which the rejection tests
// cut and rewrite frames by.
const (
	frameHeader = 8  // length + crc
	bodyHeader  = 10 // id + kind + flags
)

// TestWireReadMsg pins the streaming form: frames decode in sequence, a
// clean EOF at a boundary is io.EOF, and a cut mid-frame is ErrTorn.
func TestWireReadMsg(t *testing.T) {
	msgs := []Msg{
		{ID: 1, Kind: KindHello},
		{ID: 2, Kind: KindGet, Key: []byte("k")},
		{ID: 3, Kind: KindEntries, Flags: FlagFinal,
			Entries: []Entry{{Key: []byte("a"), Value: []byte{}, Rev: 4}}},
	}
	var buf []byte
	var err error
	for _, m := range msgs {
		if buf, err = Encode(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range msgs {
		got, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.ID != want.ID || got.Kind != want.Kind || got.Flags != want.Flags {
			t.Fatalf("msg %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadMsg(r); err != io.EOF {
		t.Fatalf("at end: err = %v, want io.EOF", err)
	}
	// Cut mid-frame: header-only and mid-body both surface as ErrTorn.
	for _, cut := range []int{3, frameHeader + 2} {
		r := bufio.NewReader(bytes.NewReader(buf[:cut]))
		if _, err := ReadMsg(r); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut at %d: err = %v, want ErrTorn", cut, err)
		}
	}
}

// TestDecodeAllocs pins decoding in place: Decode of the common request
// and response frames allocates nothing, and ReadMsg allocates exactly the
// one buffer a frame lands in.
func TestDecodeAllocs(t *testing.T) {
	val := bytes.Repeat([]byte{0xAB}, 100)
	msgs := []Msg{
		{ID: 7, Kind: KindGet, Key: []byte("user42")},
		{ID: 8, Kind: KindPut, Key: []byte("user42"), Value: val, Lease: 3},
		{ID: 7, Kind: KindValue, Value: val, Rev: 9},
		{ID: 8, Kind: KindOK, Rev: 10},
	}
	var stream []byte
	for _, m := range msgs {
		frame, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Decode of %v: %v allocs, want 0", m.Kind, allocs)
		}
		stream = append(stream, frame...)
	}
	const runs = 100
	r := bufio.NewReader(bytes.NewReader(bytes.Repeat(stream, runs+1))) // +1: AllocsPerRun's warm-up
	allocs := testing.AllocsPerRun(runs, func() {
		for range msgs {
			if _, err := ReadMsg(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perFrame := allocs / float64(len(msgs)); perFrame != 1 {
		t.Errorf("ReadMsg: %v allocs per frame, want 1", perFrame)
	}
}

// TestEncodeAllocs pins encoding in place: Encode of the common request
// and response frames into a buffer with room allocates nothing, so the
// server's writer and the client's connection add no allocation per frame.
func TestEncodeAllocs(t *testing.T) {
	val := bytes.Repeat([]byte{0xAB}, 100)
	buf := make([]byte, 0, 4096)
	for _, m := range []Msg{
		{ID: 7, Kind: KindGet, Key: []byte("user42")},
		{ID: 8, Kind: KindPut, Key: []byte("user42"), Value: val, Lease: 3},
		{ID: 7, Kind: KindValue, Value: val, Rev: 9},
		{ID: 8, Kind: KindOK, Rev: 10},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Encode(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Encode of %v: %v allocs, want 0", m.Kind, allocs)
		}
	}
}

// TestDecodeAliasesFrame pins what a decoded message owns: its byte fields
// are windows on the frame, each clipped to its own length so an append
// reallocates rather than overwriting the next field, and nil and empty
// decode as nilLen and a zero length encode them.
func TestDecodeAliasesFrame(t *testing.T) {
	frame, err := Encode(nil, Msg{Kind: KindPut, Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(frame, []byte("key")); &m.Key[0] != &frame[i] || cap(m.Key) != len(m.Key) {
		t.Errorf("key is not a clipped window on the frame: cap %d", cap(m.Key))
	}
	_ = append(m.Key, "XXXXX"...)
	if string(m.Value) != "value" {
		t.Errorf("append to the key overwrote the value: %q", m.Value)
	}
	for _, v := range [][]byte{nil, {}} {
		frame, err := Encode(nil, Msg{Kind: KindValue, Value: v})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := Decode(frame)
		if err != nil || (m.Value == nil) != (v == nil) || len(m.Value) != 0 {
			t.Errorf("value %#v decoded as %#v (err %v)", v, m.Value, err)
		}
	}
}

// TestWireErrorMapping pins the error taxonomy round trip: every kv
// sentinel survives code→error reconstruction under errors.Is, and
// enriched texts keep the server's message.
func TestWireErrorMapping(t *testing.T) {
	sentinels := []error{
		kv.ErrNotFound, kv.ErrConflict, kv.ErrRevisionMismatch,
		kv.ErrLeaseNotFound, kv.ErrReservedKey, kv.ErrArenaFull,
		kv.ErrTooLarge, kv.ErrNoWAL, ErrShutdown,
		kv.ErrTooStale, kv.ErrFenced,
	}
	for _, sent := range sentinels {
		code := CodeOf(sent)
		if code == CodeOK || code == CodeErr {
			t.Fatalf("%v: no code", sent)
		}
		if got := ErrOf(code, sent.Error()); got != sent {
			t.Errorf("%v: bare reconstruction got %v", sent, got)
		}
		wrapped := ErrOf(code, "op failed: "+sent.Error())
		if !errors.Is(wrapped, sent) {
			t.Errorf("%v: wrapped reconstruction lost the sentinel", sent)
		}
		if wrapped.Error() != "op failed: "+sent.Error() {
			t.Errorf("%v: wrapped text = %q", sent, wrapped.Error())
		}
	}
	// A wrapped sentinel maps like the sentinel itself.
	if CodeOf(errRetryWrap{}) != CodeConflict {
		t.Error("wrapped conflict not classified")
	}
	// Unclassified errors degrade to text-only.
	other := ErrOf(CodeErr, "weird")
	if other.Error() != "weird" || errors.Is(other, kv.ErrNotFound) {
		t.Errorf("unclassified error mangled: %v", other)
	}
	if ErrOf(CodeOK, "") != nil {
		t.Error("CodeOK reconstructed non-nil")
	}
}

type errRetryWrap struct{}

func (errRetryWrap) Error() string { return "wrapped" }
func (errRetryWrap) Unwrap() error { return kv.ErrConflict }

// TestWireTracedGoldenVectors pins the FlagTraced encoding: a u64 trace
// word between the body header and the kind's payload, on requests (the
// propagation key) and responses (the server's handling nanoseconds),
// plus the empty-payload admin kinds. A change here is a protocol break.
func TestWireTracedGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		msg  Msg
		want []byte
	}{
		{
			name: "traced-get",
			msg:  Msg{ID: 7, Kind: KindGet, Flags: FlagTraced, Trace: 0x0102030405060708, Key: []byte("k")},
			want: []byte{
				0x17, 0x00, 0x00, 0x00, // body length 23
				0xb4, 0xbe, 0xcb, 0x15, // crc32c
				0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 7
				0x02,                                           // kind get
				0x08,                                           // flags: traced
				0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // trace id
				0x01, 0x00, 0x00, 0x00, // key length 1
				0x6b, // 'k'
			},
		},
		{
			name: "traced-ok",
			msg:  Msg{ID: 7, Kind: KindOK, Flags: FlagTraced, Trace: 1500, Rev: 3},
			want: []byte{
				0x1a, 0x00, 0x00, 0x00, // body length 26
				0x7c, 0xd6, 0x0f, 0xb7, // crc32c
				0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 7
				0x15,                                           // kind ok
				0x08,                                           // flags: traced
				0xdc, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // server ns 1500
				0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rev 3
			},
		},
		{
			name: "tracedump",
			msg:  Msg{ID: 13, Kind: KindTraceDump},
			want: []byte{
				0x0a, 0x00, 0x00, 0x00, // body length 10
				0x4c, 0x76, 0x22, 0x86, // crc32c
				0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 13
				0x1e, // kind tracedump
				0x00, // flags
			},
		},
		{
			name: "health",
			msg:  Msg{ID: 14, Kind: KindHealth},
			want: []byte{
				0x0a, 0x00, 0x00, 0x00, // body length 10
				0x25, 0x14, 0x96, 0xcd, // crc32c
				0x0e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 14
				0x1f, // kind health
				0x00, // flags
			},
		},
	}
	for _, c := range cases {
		got, err := Encode(nil, c.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: encoded\n % x\nwant\n % x", c.name, got, c.want)
		}
		back, n, err := Decode(c.want)
		if err != nil || n != len(c.want) {
			t.Errorf("%s: decode: n=%d err=%v", c.name, n, err)
			continue
		}
		if back.Trace != c.msg.Trace || back.Flags != c.msg.Flags {
			t.Errorf("%s: trace word round trip: got %d/%#x want %d/%#x",
				c.name, back.Trace, back.Flags, c.msg.Trace, c.msg.Flags)
		}
		re, err := Encode(nil, back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", c.name, err)
		}
		if !bytes.Equal(re, c.want) {
			t.Errorf("%s: decode/encode not canonical:\n % x\nwant\n % x", c.name, re, c.want)
		}
	}
}

// TestWireUntracedUnchanged: a frame without FlagTraced is byte-identical
// whatever Trace holds — sampling off leaves the wire image exactly as it
// was before tracing existed.
func TestWireUntracedUnchanged(t *testing.T) {
	plain, err := Encode(nil, Msg{ID: 7, Kind: KindGet, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Encode(nil, Msg{ID: 7, Kind: KindGet, Key: []byte("k"), Trace: 999})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, dirty) {
		t.Fatalf("untraced frame depends on Trace field:\n % x\n % x", plain, dirty)
	}
	m, _, err := Decode(plain)
	if err != nil || m.Trace != 0 {
		t.Fatalf("untraced decode: trace=%d err=%v, want 0/nil", m.Trace, err)
	}
}

// TestWireTracedTruncation: a traced frame whose trace word is cut short
// (behind a refit checksum) is rejected, not misparsed as payload.
func TestWireTracedTruncation(t *testing.T) {
	frame, err := Encode(nil, Msg{ID: 1, Kind: KindClockNow, Flags: FlagTraced, Trace: 77})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), frame[frameHeader:]...)
	body = body[:len(body)-3] // cut into the trace word
	out := make([]byte, frameHeader, frameHeader+len(body))
	out = append(out, body...)
	le := func(off int, v uint32) {
		out[off] = byte(v)
		out[off+1] = byte(v >> 8)
		out[off+2] = byte(v >> 16)
		out[off+3] = byte(v >> 24)
	}
	le(0, uint32(len(body)))
	le(4, crcOf(body))
	if _, _, err := Decode(out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated trace word: err = %v, want ErrCorrupt", err)
	}
}
