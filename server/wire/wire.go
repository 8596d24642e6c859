// Package wire defines the binary protocol the network front end speaks:
// length-prefixed, checksummed frames carrying one request or response
// each, matched by a per-connection request id so sessions can pipeline
// many operations and receive completions out of order.
//
// A frame is the envelope of package internal/frame, shared with the WAL:
// u32 body length, u32 CRC-32C, then a body opening with u64 request id,
// u8 kind and u8 flags (all integers little-endian); then a u64 trace word
// when FlagTraced is set; then the kind's payload, whose layout is
// Msg.walk, one case per kind. A byte field is a u32 length and the bytes,
// 0xFFFFFFFF for nil; a list is a u32 count and its elements. Decoding is
// strict: a frame must consume its payload exactly, lengths are bounded
// before allocation, and anything else is ErrCorrupt.
//
// Request ids are chosen by the client and never interpreted by the server
// beyond echoing them; a server-push stream (Watch) reuses the subscribing
// request's id for every Event frame and closes with one WatchEnd frame.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"rhtm/internal/frame"
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

// Error codes carried by Err frames and per-op Results. Each classified
// code maps one sentinel of the kv taxonomy (the codes table below CodeOf),
// so errors.Is works on both sides of the wire.
const (
	CodeOK               uint8 = iota // success (only meaningful in per-op Results)
	CodeErr                           // unclassified: only the text survives
	CodeNotFound                      // kv.ErrNotFound
	CodeConflict                      // kv.ErrConflict
	CodeRevisionMismatch              // kv.ErrRevisionMismatch
	CodeLeaseNotFound                 // kv.ErrLeaseNotFound
	CodeReservedKey                   // kv.ErrReservedKey
	CodeArenaFull                     // kv.ErrArenaFull
	CodeTooLarge                      // kv.ErrTooLarge
	CodeNoWAL                         // kv.ErrNoWAL
	CodeShutdown                      // ErrShutdown: the server is draining
	CodeTooStale                      // kv.ErrTooStale: the floor is above the watermark
	CodeFenced                        // kv.ErrFenced: retry against the new primary
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
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds the %d-byte body bound", MaxFrameBody)

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

// MaxFrameBody bounds a frame's body, the bound of the shared envelope
// (package internal/frame) that the WAL uses too.
const MaxFrameBody = frame.MaxBody

var format = frame.Format{Torn: ErrTorn, Corrupt: ErrCorrupt, TooLarge: ErrFrameTooLarge}

// Encode appends m as one frame to dst and returns the extended slice, or
// ErrFrameTooLarge when the body would exceed MaxFrameBody.
func Encode(dst []byte, m Msg) ([]byte, error) {
	c := frame.Begin(dst, &format)
	m.walk(&c)
	return c.Seal()
}

// Decode reads one frame from the front of b, returning the message and the
// bytes consumed. ErrTorn means b ends mid-frame; ErrCorrupt means the
// frame is complete but invalid.
func Decode(b []byte) (Msg, int, error) {
	c, n, err := frame.Open(b, &format)
	if err != nil {
		return Msg{}, 0, err
	}
	var m Msg
	m.walk(&c)
	if err := c.Done(); err != nil {
		return Msg{}, 0, err
	}
	return m, n, nil
}

// ReadMsg reads exactly one frame from r. A clean EOF at a frame boundary
// is io.EOF; a stream cut mid-frame is ErrTorn. The header is peeked in
// place and the whole frame is read into one buffer allocated for it, which
// the decoded message aliases.
func ReadMsg(r *bufio.Reader) (Msg, error) {
	hdr, err := r.Peek(frame.HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return Msg{}, ErrTorn
		}
		return Msg{}, err
	}
	n, err := frame.Len(hdr, &format)
	if err != nil {
		return Msg{}, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Msg{}, ErrTorn
		}
		return Msg{}, err
	}
	m, _, err := Decode(buf)
	return m, err
}

// walk is the frame's layout, which Encode and Decode both run: the body
// header, the trace word when FlagTraced is set, then the kind's payload.
func (m *Msg) walk(c *frame.Codec) {
	c.U64(&m.ID)
	c.U8((*uint8)(&m.Kind))
	c.U8(&m.Flags)
	if m.Flags&FlagTraced != 0 {
		c.U64(&m.Trace)
	}
	switch m.Kind {
	case KindHello, KindExpire, KindClockNow, KindWatchIdle,
		KindCheckpoint, KindMetrics, KindTraceDump, KindHealth, KindWatchEnd:
		// empty payload
	case KindGet, KindGetRev, KindDelete:
		c.Bytes(&m.Key)
	case KindPut:
		c.Bytes(&m.Key)
		c.Bytes(&m.Value)
		c.U64(&m.Lease)
	case KindPutIf:
		c.Bytes(&m.Key)
		c.Bytes(&m.Value)
		c.U64(&m.Rev)
		c.U64(&m.Lease)
	case KindDeleteIf, KindWatch, KindFollowerGet:
		c.Bytes(&m.Key)
		c.U64(&m.Rev)
	case KindBatch:
		walkOps(c, &m.Ops)
	case KindTxn:
		m.Conds = frame.Slice(c, m.Conds, c.Count(len(m.Conds), 12)) // key length word + rev
		for i := range m.Conds {
			c.Bytes(&m.Conds[i].Key)
			c.U64(&m.Conds[i].Rev)
		}
		walkOps(c, &m.Ops)
		if m.Flags&FlagRanges != 0 {
			m.Ranges = frame.Slice(c, m.Ranges, c.Count(len(m.Ranges), 8)) // two length words
			for i := range m.Ranges {
				c.Bytes(&m.Ranges[i].Start)
				c.Bytes(&m.Ranges[i].End)
			}
		}
	case KindScan:
		c.Bytes(&m.Key)
		c.Bytes(&m.End)
		c.U64(&m.Rev)
	case KindGrant, KindOK, KindWatchCancel:
		c.U64(&m.Rev)
	case KindKeepAlive, KindRevoke:
		c.U64(&m.Lease)
	case KindErr:
		c.U8(&m.Code)
		c.Str(&m.Text)
	case KindValue:
		c.Bytes(&m.Value)
		c.U64(&m.Rev)
	case KindFollowerValue:
		c.Bytes(&m.Value)
		c.U64(&m.Rev)
		c.U64(&m.Lease)
	case KindEntries:
		m.Entries = frame.Slice(c, m.Entries, c.Count(len(m.Entries), 16)) // two length words + rev
		for i := range m.Entries {
			e := &m.Entries[i]
			c.Bytes(&e.Key)
			c.Bytes(&e.Value)
			c.U64(&e.Rev)
		}
	case KindResults:
		m.Results = frame.Slice(c, m.Results, c.Count(len(m.Results), 5)) // code + length word
		for i := range m.Results {
			c.U8(&m.Results[i].Code)
			c.Bytes(&m.Results[i].Value)
		}
	case KindEvent:
		c.U8(&m.Code)
		if m.Code > uint8(kv.EventLost) {
			c.Fail("event kind %d", m.Code)
		}
		c.Bytes(&m.Key)
		c.Bytes(&m.Value)
		c.U64(&m.Rev)
	default:
		c.Fail("unknown kind %d", m.Kind)
	}
}

// walkOps walks a Batch's or a Txn's op list.
func walkOps(c *frame.Codec, ops *[]kv.Op) {
	*ops = frame.Slice(c, *ops, c.Count(len(*ops), 17)) // kind + two length words + lease
	for i := range *ops {
		op := &(*ops)[i]
		c.U8((*uint8)(&op.Kind))
		if op.Kind > kv.OpDelete {
			c.Fail("op kind %d", op.Kind)
		}
		c.Bytes(&op.Key)
		c.Bytes(&op.Value)
		c.U64(&op.Lease)
	}
}

// codes pairs every classified error code with the sentinel it maps, in
// the order CodeOf tries them.
var codes = [...]struct {
	code uint8
	err  error
}{
	{CodeNotFound, kv.ErrNotFound},
	{CodeRevisionMismatch, kv.ErrRevisionMismatch},
	{CodeConflict, kv.ErrConflict},
	{CodeLeaseNotFound, kv.ErrLeaseNotFound},
	{CodeReservedKey, kv.ErrReservedKey},
	{CodeArenaFull, kv.ErrArenaFull},
	{CodeTooLarge, kv.ErrTooLarge},
	{CodeNoWAL, kv.ErrNoWAL},
	{CodeShutdown, ErrShutdown},
	{CodeTooStale, kv.ErrTooStale},
	{CodeFenced, kv.ErrFenced},
}

// CodeOf maps an error to its wire code; unrecognized errors degrade to
// CodeErr (text-only).
func CodeOf(err error) uint8 {
	if err == nil {
		return CodeOK
	}
	for _, c := range codes {
		if errors.Is(err, c.err) {
			return c.code
		}
	}
	return CodeErr
}

// Sentinel returns the kv-surface sentinel a code maps to (nil for CodeOK
// and for the unclassified CodeErr).
func Sentinel(code uint8) error {
	for _, c := range codes {
		if c.code == code {
			return c.err
		}
	}
	return nil
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
