// Package wire defines the binary protocol the network front end speaks:
// length-prefixed, checksummed frames carrying one request or response
// each, matched by a per-connection request id so sessions can pipeline
// many operations and receive completions out of order. The layout follows
// the WAL record codec (the repo's other wire format): a fixed header whose
// CRC makes truncation and corruption distinguishable, a kind byte that
// selects an exact payload schema, and strict decoding — every frame must
// consume its payload exactly, lengths are bounded before allocation, and
// anything else is ErrCorrupt.
//
// Frame layout (all integers little-endian):
//
//	offset 0  u32  body length B
//	offset 4  u32  CRC-32C over the body
//	offset 8  B bytes of body:
//	          u64  request id
//	          u8   kind
//	          u8   flags
//	          payload (kind-specific, below)
//
// Payloads (bytes = u32 length + bytes, with 0xFFFFFFFF meaning nil):
//
//	Hello, Expire, ClockNow, WatchIdle,
//	Checkpoint, Metrics, WatchEnd:        (empty)
//	Get / GetRev / Delete:                bytes key
//	Put:                                  bytes key, bytes value, u64 lease
//	PutIf:                                bytes key, bytes value, u64 rev,
//	                                      u64 lease
//	DeleteIf:                             bytes key, u64 rev
//	Batch:                                u32 n, n × op
//	Txn:                                  u32 nc, nc × (bytes key, u64 rev),
//	                                      u32 no, no × op
//	Scan:                                 bytes start, bytes end, u64 limit
//	Grant:                                u64 ttl
//	KeepAlive / Revoke:                   u64 lease
//	Watch:                                bytes prefix, u64 fromRev
//	WatchCancel:                          u64 watch id
//	OK:                                   u64 rev
//	Err:                                  u8 code, u32 len, text bytes
//	Value:                                bytes value, u64 rev
//	Entries:                              u32 n, n × (bytes key, bytes value,
//	                                      u64 rev)
//	Results:                              u32 n, n × (u8 code, bytes value)
//	Event:                                u8 event kind, bytes key,
//	                                      bytes value, u64 rev
//
//	op = u8 kind, bytes key, bytes value, u64 lease
//
// Request ids are chosen by the client and never interpreted by the server
// beyond echoing them; a server-push stream (Watch) reuses the subscribing
// request's id for every Event frame and closes with one WatchEnd frame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rhtm/kv"
)

// Kind classifies a frame. Requests and responses share the space; the
// direction is implied by which side sent it.
type Kind uint8

const (
	// KindHello opens a connection: the response is a Value frame carrying
	// the serving engine's name (the label client-side tracer spans use).
	KindHello Kind = 1 + iota
	// KindGet reads one key (response: Value with rev 0, or Err).
	KindGet
	// KindGetRev reads one key with its revision (response: Value).
	KindGetRev
	// KindPut writes one key (response: OK).
	KindPut
	// KindPutIf is the guarded write (response: OK or Err).
	KindPutIf
	// KindDelete removes one key (response: OK or Err).
	KindDelete
	// KindDeleteIf is the guarded removal (response: OK or Err).
	KindDeleteIf
	// KindBatch executes ops atomically (response: Results or Err).
	KindBatch
	// KindTxn commits a client-side closure: conditions (key, revision
	// observed by the client's reads) plus buffered write ops, and with
	// FlagRanges the ranges it scanned. The server validates every
	// condition and range and applies the ops in one transaction
	// (response: OK carrying the commit revision, or Err with CodeConflict
	// when validation failed).
	KindTxn
	// KindScan snapshots a key range (response: one or more Entries frames,
	// the last marked FlagFinal, or Err). FlagWithRev asks for revisions —
	// the form client transactions use to build their read sets.
	KindScan
	// KindGrant mints a lease (response: OK carrying the lease id).
	KindGrant
	// KindKeepAlive extends a lease (response: OK or Err).
	KindKeepAlive
	// KindRevoke revokes a lease and its keys (response: OK or Err).
	KindRevoke
	// KindExpire pumps lease expiry (response: OK carrying the count).
	KindExpire
	// KindClockNow samples the server's virtual clock (response: OK
	// carrying now).
	KindClockNow
	// KindWatch subscribes to commit events under a prefix (response: OK,
	// then server-push Event frames under the same id, then WatchEnd).
	KindWatch
	// KindWatchCancel cancels the watch whose stream id rides in Rev
	// (response: OK under this frame's own id; the cancelled watch id
	// receives its WatchEnd separately). The cancel cannot reuse the
	// watch's id — the stream is still emitting frames under it.
	KindWatchCancel
	// KindWatchIdle blocks until the server's watch machinery for this
	// connection has quiesced (response: OK) — the remote form of the
	// WaitWatchIdle test hook.
	KindWatchIdle
	// KindCheckpoint snapshots the server DB's WAL (response: OK or Err).
	KindCheckpoint
	// KindMetrics samples the server DB's metrics snapshot, JSON-encoded
	// (response: Value).
	KindMetrics
	// KindOK is the generic success response; Rev carries the kind-specific
	// result (commit revision, lease id, count, clock reading).
	KindOK
	// KindErr is the failure response: a code mapping to the kv sentinel
	// taxonomy plus the server's error text.
	KindErr
	// KindValue is a value-bearing response (Get, GetRev, Hello, Metrics).
	KindValue
	// KindEntries is one chunk of a Scan response.
	KindEntries
	// KindResults is a Batch response: per-op outcome codes and values.
	KindResults
	// KindEvent is one server-push watch event.
	KindEvent
	// KindWatchEnd closes a watch stream (after cancel, disconnect, or
	// server shutdown).
	KindWatchEnd
	// KindFollowerGet reads one key at a staleness floor (Rev; 0 = none)
	// against a replica or the primary (response: FollowerValue, or Err
	// with CodeTooStale when the watermark has not reached the floor).
	KindFollowerGet
	// KindFollowerValue answers KindFollowerGet: the value and its revision as
	// in a Value frame, plus the applied watermark the read is provably
	// current to riding in Lease (FlagAbsent marks a missing key, the
	// watermark still meaningful).
	KindFollowerValue
	// KindTraceDump dumps the server's flight recorder — per-kind slowest
	// and recent-error traces with stage quantiles, JSON-encoded
	// (response: Value).
	KindTraceDump
	// KindHealth reports the server's health view: uptime, connection and
	// request counts, per-replica applied watermarks and lag, JSON-encoded
	// (response: Value).
	KindHealth
	kindMax
)

// kindNames label the server.requests metric and debug output.
var kindNames = [...]string{
	KindHello: "hello", KindGet: "get", KindGetRev: "getrev", KindPut: "put",
	KindPutIf: "putif", KindDelete: "delete", KindDeleteIf: "deleteif",
	KindBatch: "batch", KindTxn: "txn", KindScan: "scan", KindGrant: "grant",
	KindKeepAlive: "keepalive", KindRevoke: "revoke", KindExpire: "expire",
	KindClockNow: "clocknow", KindWatch: "watch", KindWatchCancel: "watchcancel",
	KindWatchIdle: "watchidle", KindCheckpoint: "checkpoint", KindMetrics: "metrics",
	KindOK: "ok", KindErr: "err", KindValue: "value", KindEntries: "entries",
	KindResults: "results", KindEvent: "event", KindWatchEnd: "watchend",
	KindFollowerGet: "followerget", KindFollowerValue: "followervalue",
	KindTraceDump: "tracedump", KindHealth: "health",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame flags.
const (
	// FlagWithRev on a Scan request asks for per-entry revisions collected
	// inside one transaction that records every yielded key as a read —
	// the building block of client-side closure transactions.
	FlagWithRev = 1 << 0
	// FlagFinal marks the last Entries chunk of a Scan response.
	FlagFinal = 1 << 1
	// FlagAbsent on a Value response means the key does not exist: GetRev
	// inside a client-side transaction must observe "absent at revision 0"
	// as a condition, not an error, so absence travels as a flag and the
	// public Get/GetRev surface reconstructs kv.ErrNotFound from it.
	FlagAbsent = 1 << 2
	// FlagTraced marks a sampled frame: a u64 trace id follows the body
	// header, before the kind's payload. On a request it is the client's
	// trace id (the propagation key); on a response it echoes the server's
	// handling time in nanoseconds so the client can attribute the
	// remainder of the round trip to the network. Untraced frames carry no
	// extra bytes, so the sampling-off wire image is byte-identical to
	// earlier protocol revisions.
	FlagTraced = 1 << 3
	// FlagRanges on a Txn request means a range list follows the ops: the
	// key ranges the client's closure scanned, which the server
	// re-validates for phantoms. A Txn that scanned nothing leaves it
	// clear and carries no extra bytes.
	FlagRanges = 1 << 4
)

// Error codes carried by Err frames and per-op Results, mapping the kv
// sentinel taxonomy across the wire so errors.Is works on both sides.
const (
	// CodeOK is success (only meaningful in per-op Results).
	CodeOK uint8 = iota
	// CodeErr is an unclassified error: only the text survives.
	CodeErr
	// CodeNotFound maps kv.ErrNotFound.
	CodeNotFound
	// CodeConflict maps kv.ErrConflict.
	CodeConflict
	// CodeRevisionMismatch maps kv.ErrRevisionMismatch.
	CodeRevisionMismatch
	// CodeLeaseNotFound maps kv.ErrLeaseNotFound.
	CodeLeaseNotFound
	// CodeReservedKey maps kv.ErrReservedKey.
	CodeReservedKey
	// CodeArenaFull maps kv.ErrArenaFull.
	CodeArenaFull
	// CodeTooLarge maps kv.ErrTooLarge.
	CodeTooLarge
	// CodeNoWAL maps kv.ErrNoWAL.
	CodeNoWAL
	// CodeShutdown maps ErrShutdown: the server is draining and refused or
	// abandoned the request.
	CodeShutdown
	// CodeTooStale maps kv.ErrTooStale: a follower read's staleness floor
	// is above the replica's applied watermark.
	CodeTooStale
	// CodeFenced maps kv.ErrFenced: the server's DB was deposed by an
	// epoch fence — retry against the new primary.
	CodeFenced
)

// ErrShutdown is the sentinel a draining server answers with; clients see
// it (wrapped with the server's text) from every request the shutdown cut.
var ErrShutdown = errors.New("wire: server shutting down")

// ErrTorn reports an incomplete frame: the stream ended mid-record.
var ErrTorn = errors.New("wire: torn frame (stream ends mid-record)")

// ErrCorrupt reports a frame that is complete but fails its checksum,
// carries impossible lengths, or does not consume its payload exactly.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrFrameTooLarge reports an Encode whose body would exceed MaxFrameBody;
// the peer would reject it as corrupt, so it is refused at the source.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")

// Cond is one optimistic-validation condition of a Txn commit: the key must
// still be at exactly Rev (0 = still absent).
type Cond struct {
	Key []byte
	Rev uint64
}

// Range is one key range [Start, End) a Txn's closure scanned (nil bounds
// unbounded): no committed key inside it may be missing from the Txn's
// conditions.
type Range struct {
	Start, End []byte
}

// Entry is one key-value-revision triple of an Entries chunk.
type Entry struct {
	Key   []byte
	Value []byte
	Rev   uint64
}

// Result is one per-op outcome of a Results frame.
type Result struct {
	Code  uint8
	Value []byte
}

// Msg is one decoded frame. Only the fields its Kind names are meaningful;
// Encode ignores the rest, Decode leaves them zero.
type Msg struct {
	ID    uint64
	Kind  Kind
	Flags uint8
	// Trace is the FlagTraced word: the trace id on requests, the
	// server's handling nanoseconds on responses. Encoded only when
	// FlagTraced is set.
	Trace   uint64
	Code    uint8 // Err: error code; Event: event kind
	Key     []byte
	Value   []byte
	End     []byte
	Rev     uint64
	Lease   uint64
	Text    string
	Ops     []kv.Op
	Conds   []Cond
	Ranges  []Range // Txn with FlagRanges
	Entries []Entry
	Results []Result
}

// frame header and payload bounds.
const (
	frameHeader = 8  // length + crc
	bodyHeader  = 10 // id + kind + flags
	// MaxFrameBody bounds a frame's body so corrupt length words fail fast
	// instead of allocating gigabytes — the same bound the WAL uses.
	MaxFrameBody = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// nilLen is the on-wire length word meaning "nil slice" (distinct from
// empty — watch events carry nil values when the commit log elided them).
const nilLen = ^uint32(0)

// Encode appends m as one frame to dst and returns the extended slice, or
// ErrFrameTooLarge when the body would exceed MaxFrameBody.
func Encode(dst []byte, m Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = appendU64(dst, m.ID)
	dst = append(dst, byte(m.Kind), m.Flags)
	if m.Flags&FlagTraced != 0 {
		dst = appendU64(dst, m.Trace)
	}
	switch m.Kind {
	case KindHello, KindExpire, KindClockNow, KindWatchIdle,
		KindCheckpoint, KindMetrics, KindTraceDump, KindHealth, KindWatchEnd:
		// empty payload
	case KindGet, KindGetRev, KindDelete:
		dst = appendBytes(dst, m.Key)
	case KindPut:
		dst = appendBytes(dst, m.Key)
		dst = appendBytes(dst, m.Value)
		dst = appendU64(dst, m.Lease)
	case KindPutIf:
		dst = appendBytes(dst, m.Key)
		dst = appendBytes(dst, m.Value)
		dst = appendU64(dst, m.Rev)
		dst = appendU64(dst, m.Lease)
	case KindDeleteIf:
		dst = appendBytes(dst, m.Key)
		dst = appendU64(dst, m.Rev)
	case KindBatch:
		dst = appendOps(dst, m.Ops)
	case KindTxn:
		dst = appendU32(dst, uint32(len(m.Conds)))
		for _, c := range m.Conds {
			dst = appendBytes(dst, c.Key)
			dst = appendU64(dst, c.Rev)
		}
		dst = appendOps(dst, m.Ops)
		if m.Flags&FlagRanges != 0 {
			dst = appendU32(dst, uint32(len(m.Ranges)))
			for _, r := range m.Ranges {
				dst = appendBytes(dst, r.Start)
				dst = appendBytes(dst, r.End)
			}
		}
	case KindScan:
		dst = appendBytes(dst, m.Key)
		dst = appendBytes(dst, m.End)
		dst = appendU64(dst, m.Rev)
	case KindGrant:
		dst = appendU64(dst, m.Rev)
	case KindKeepAlive, KindRevoke:
		dst = appendU64(dst, m.Lease)
	case KindWatch, KindFollowerGet:
		dst = appendBytes(dst, m.Key)
		dst = appendU64(dst, m.Rev)
	case KindOK, KindWatchCancel:
		dst = appendU64(dst, m.Rev)
	case KindErr:
		dst = append(dst, m.Code)
		dst = appendU32(dst, uint32(len(m.Text)))
		dst = append(dst, m.Text...)
	case KindValue:
		dst = appendBytes(dst, m.Value)
		dst = appendU64(dst, m.Rev)
	case KindFollowerValue:
		dst = appendBytes(dst, m.Value)
		dst = appendU64(dst, m.Rev)
		dst = appendU64(dst, m.Lease)
	case KindEntries:
		dst = appendU32(dst, uint32(len(m.Entries)))
		for _, e := range m.Entries {
			dst = appendBytes(dst, e.Key)
			dst = appendBytes(dst, e.Value)
			dst = appendU64(dst, e.Rev)
		}
	case KindResults:
		dst = appendU32(dst, uint32(len(m.Results)))
		for _, r := range m.Results {
			dst = append(dst, r.Code)
			dst = appendBytes(dst, r.Value)
		}
	case KindEvent:
		dst = append(dst, m.Code)
		dst = appendBytes(dst, m.Key)
		dst = appendBytes(dst, m.Value)
		dst = appendU64(dst, m.Rev)
	default:
		return nil, fmt.Errorf("wire: encode of unknown kind %d", m.Kind)
	}
	body := dst[start+frameHeader:]
	if len(body) > MaxFrameBody {
		return nil, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst, nil
}

// Decode reads one frame from the front of b, returning the message and the
// bytes consumed. ErrTorn means b ends mid-frame; ErrCorrupt means the
// frame is complete but invalid.
func Decode(b []byte) (Msg, int, error) {
	if len(b) < frameHeader {
		return Msg{}, 0, ErrTorn
	}
	blen := int(binary.LittleEndian.Uint32(b))
	if blen < bodyHeader || blen > MaxFrameBody {
		return Msg{}, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, blen)
	}
	if len(b) < frameHeader+blen {
		return Msg{}, 0, ErrTorn
	}
	body := b[frameHeader : frameHeader+blen]
	if crc := crc32.Checksum(body, crcTable); crc != binary.LittleEndian.Uint32(b[4:]) {
		return Msg{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	m, err := decodeBody(body)
	if err != nil {
		return Msg{}, 0, err
	}
	return m, frameHeader + blen, nil
}

// ReadMsg reads exactly one frame from r. A clean EOF at a frame boundary
// is io.EOF; a stream cut mid-frame is ErrTorn. The header is peeked in
// place and the whole frame is read into one buffer allocated for it, which
// the decoded message aliases.
func ReadMsg(r *bufio.Reader) (Msg, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return Msg{}, ErrTorn
		}
		return Msg{}, err
	}
	blen := int(binary.LittleEndian.Uint32(hdr))
	if blen < bodyHeader || blen > MaxFrameBody {
		return Msg{}, fmt.Errorf("%w: body length %d", ErrCorrupt, blen)
	}
	frame := make([]byte, frameHeader+blen)
	if _, err := io.ReadFull(r, frame); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Msg{}, ErrTorn
		}
		return Msg{}, err
	}
	m, _, err := Decode(frame)
	return m, err
}

func decodeBody(body []byte) (Msg, error) {
	m := Msg{
		ID:    binary.LittleEndian.Uint64(body),
		Kind:  Kind(body[8]),
		Flags: body[9],
	}
	d := &decoder{p: body[bodyHeader:]}
	if m.Flags&FlagTraced != 0 {
		m.Trace = d.u64()
	}
	switch m.Kind {
	case KindHello, KindExpire, KindClockNow, KindWatchIdle,
		KindCheckpoint, KindMetrics, KindTraceDump, KindHealth, KindWatchEnd:
		// empty payload
	case KindGet, KindGetRev, KindDelete:
		m.Key = d.bytes()
	case KindPut:
		m.Key = d.bytes()
		m.Value = d.bytes()
		m.Lease = d.u64()
	case KindPutIf:
		m.Key = d.bytes()
		m.Value = d.bytes()
		m.Rev = d.u64()
		m.Lease = d.u64()
	case KindDeleteIf:
		m.Key = d.bytes()
		m.Rev = d.u64()
	case KindBatch:
		m.Ops = d.ops()
	case KindTxn:
		nc := d.count(12) // key length word + rev
		for i := 0; i < nc && d.err == nil; i++ {
			var c Cond
			c.Key = d.bytes()
			c.Rev = d.u64()
			m.Conds = append(m.Conds, c)
		}
		m.Ops = d.ops()
		if m.Flags&FlagRanges != 0 {
			nr := d.count(8) // two length words
			for i := 0; i < nr && d.err == nil; i++ {
				var r Range
				r.Start = d.bytes()
				r.End = d.bytes()
				m.Ranges = append(m.Ranges, r)
			}
		}
	case KindScan:
		m.Key = d.bytes()
		m.End = d.bytes()
		m.Rev = d.u64()
	case KindGrant:
		m.Rev = d.u64()
	case KindKeepAlive, KindRevoke:
		m.Lease = d.u64()
	case KindWatch, KindFollowerGet:
		m.Key = d.bytes()
		m.Rev = d.u64()
	case KindOK, KindWatchCancel:
		m.Rev = d.u64()
	case KindErr:
		m.Code = d.u8()
		m.Text = string(d.str())
	case KindValue:
		m.Value = d.bytes()
		m.Rev = d.u64()
	case KindFollowerValue:
		m.Value = d.bytes()
		m.Rev = d.u64()
		m.Lease = d.u64()
	case KindEntries:
		n := d.count(16) // two length words + rev
		for i := 0; i < n && d.err == nil; i++ {
			var e Entry
			e.Key = d.bytes()
			e.Value = d.bytes()
			e.Rev = d.u64()
			m.Entries = append(m.Entries, e)
		}
	case KindResults:
		n := d.count(5) // code + length word
		for i := 0; i < n && d.err == nil; i++ {
			var r Result
			r.Code = d.u8()
			r.Value = d.bytes()
			m.Results = append(m.Results, r)
		}
	case KindEvent:
		m.Code = d.u8()
		if d.err == nil && m.Code > uint8(kv.EventLost) {
			return Msg{}, fmt.Errorf("%w: event kind %d", ErrCorrupt, m.Code)
		}
		m.Key = d.bytes()
		m.Value = d.bytes()
		m.Rev = d.u64()
	default:
		return Msg{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, m.Kind)
	}
	if d.err != nil {
		return Msg{}, d.err
	}
	if len(d.p) != 0 {
		return Msg{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.p))
	}
	return m, nil
}

// decoder walks a payload with sticky-error semantics; every accessor
// returns zero after the first failure.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.p) < 1 {
		d.fail("truncated u8")
		return 0
	}
	v := d.p[0]
	d.p = d.p[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.p) < 4 {
		d.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p)
	d.p = d.p[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.p) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p)
	d.p = d.p[8:]
	return v
}

// bytes reads one nilable byte field, nil when the length word is the nil
// sentinel. The field aliases the frame, clipped to its own length so an
// append by the holder reallocates instead of overwriting what follows.
func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n == nilLen {
		return nil
	}
	// Compare in uint64: int(n) would go negative on 32-bit platforms for
	// lengths past MaxInt32 and slip the bound check into a slice panic.
	if uint64(n) > uint64(len(d.p)) {
		d.fail("byte field length %d of %d", n, len(d.p))
		return nil
	}
	v := d.p[:n:n]
	d.p = d.p[n:]
	return v
}

// str reads one non-nilable byte field (error text).
func (d *decoder) str() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(d.p)) { // uint64: see bytes
		d.fail("text length %d of %d", n, len(d.p))
		return nil
	}
	v := d.p[:n]
	d.p = d.p[n:]
	return v
}

// count reads a collection length and bounds it by the minimum encoded
// size of one element, so corrupt counts fail before allocation.
func (d *decoder) count(minElem int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if uint64(n) > uint64(len(d.p)/minElem) { // uint64: see bytes
		d.fail("count %d exceeds %d payload bytes", n, len(d.p))
		return 0
	}
	return int(n)
}

func (d *decoder) ops() []kv.Op {
	n := d.count(17) // kind + two length words + lease
	var ops []kv.Op
	for i := 0; i < n && d.err == nil; i++ {
		var op kv.Op
		op.Kind = kv.OpKind(d.u8())
		if d.err == nil && op.Kind > kv.OpDelete {
			d.fail("op kind %d", op.Kind)
			return nil
		}
		op.Key = d.bytes()
		op.Value = d.bytes()
		op.Lease = d.u64()
		ops = append(ops, op)
	}
	return ops
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendBytes(dst, v []byte) []byte {
	if v == nil {
		return appendU32(dst, nilLen)
	}
	dst = appendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

func appendOps(dst []byte, ops []kv.Op) []byte {
	dst = appendU32(dst, uint32(len(ops)))
	for _, op := range ops {
		dst = append(dst, byte(op.Kind))
		dst = appendBytes(dst, op.Key)
		dst = appendBytes(dst, op.Value)
		dst = appendU64(dst, op.Lease)
	}
	return dst
}

// CodeOf maps an error to its wire code; unrecognized errors degrade to
// CodeErr (text-only).
func CodeOf(err error) uint8 {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, kv.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, kv.ErrRevisionMismatch):
		return CodeRevisionMismatch
	case errors.Is(err, kv.ErrConflict):
		return CodeConflict
	case errors.Is(err, kv.ErrLeaseNotFound):
		return CodeLeaseNotFound
	case errors.Is(err, kv.ErrReservedKey):
		return CodeReservedKey
	case errors.Is(err, kv.ErrArenaFull):
		return CodeArenaFull
	case errors.Is(err, kv.ErrTooLarge):
		return CodeTooLarge
	case errors.Is(err, kv.ErrNoWAL):
		return CodeNoWAL
	case errors.Is(err, ErrShutdown):
		return CodeShutdown
	case errors.Is(err, kv.ErrTooStale):
		return CodeTooStale
	case errors.Is(err, kv.ErrFenced):
		return CodeFenced
	default:
		return CodeErr
	}
}

// Sentinel returns the kv-surface sentinel a code maps to (nil for CodeOK
// and for the unclassified CodeErr).
func Sentinel(code uint8) error {
	switch code {
	case CodeNotFound:
		return kv.ErrNotFound
	case CodeConflict:
		return kv.ErrConflict
	case CodeRevisionMismatch:
		return kv.ErrRevisionMismatch
	case CodeLeaseNotFound:
		return kv.ErrLeaseNotFound
	case CodeReservedKey:
		return kv.ErrReservedKey
	case CodeArenaFull:
		return kv.ErrArenaFull
	case CodeTooLarge:
		return kv.ErrTooLarge
	case CodeNoWAL:
		return kv.ErrNoWAL
	case CodeShutdown:
		return ErrShutdown
	case CodeTooStale:
		return kv.ErrTooStale
	case CodeFenced:
		return kv.ErrFenced
	default:
		return nil
	}
}

// RemoteError is how a wire Err frame surfaces to callers: it preserves the
// server's text while unwrapping to the sentinel its code names, so
// errors.Is behaves exactly as it would against an in-process DB.
type RemoteError struct {
	Code uint8
	Text string
}

func (e *RemoteError) Error() string {
	if e.Text != "" {
		return e.Text
	}
	return "wire: remote error"
}

func (e *RemoteError) Unwrap() error { return Sentinel(e.Code) }

// ErrOf reconstructs the error an Err frame carries. When the text adds
// nothing over the sentinel, the bare sentinel is returned (per-op batch
// results compare with == in old code paths; keep them working).
func ErrOf(code uint8, text string) error {
	if code == CodeOK {
		return nil
	}
	if sent := Sentinel(code); sent != nil && (text == "" || text == sent.Error()) {
		return sent
	}
	return &RemoteError{Code: code, Text: text}
}
