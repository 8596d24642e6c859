package wal

import (
	"errors"

	"rhtm/internal/frame"
)

// Frame layout: the envelope of package internal/frame (u32 body length,
// u32 CRC-32C over the body, then a body opening with u64 LSN, u8 kind, u8
// flags; all integers little-endian), whose id word is the LSN, monotone
// per stream. Payloads (Record.walk; a length-prefixed field decodes as
// nil when empty):
//
//	Begin / Commit / Mark:  u64 txid
//	Op / CheckpointEntry:   u32 partition, u8 op kind, u64 revision,
//	                        u64 lease, u32 key length, key bytes,
//	                        u32 value length, value bytes
//	CheckpointBegin:        (empty)
//	CheckpointEnd:          u64 entry count
//	Epoch:                  u64 epoch, u32 blob length, membership blob
//
// The CRC is the torn-tail detector: recovery reads frames until one is
// incomplete or fails its checksum and treats everything after as lost.
// LSNs never reset across reopen; they are the coordinate recovery and the
// checkpoint/durable cross-checks speak in.

// Kind classifies a frame.
type Kind uint8

const (
	// KindBegin opens a transaction group (payload: txid).
	KindBegin Kind = 1 + iota
	// KindOp is one redo operation of the open group.
	KindOp
	// KindCommit closes the group — the frame that makes it count.
	KindCommit
	// KindCheckpointBegin opens an in-log snapshot of the full state.
	KindCheckpointBegin
	// KindCheckpointEntry is one snapshot entry (an Op payload).
	KindCheckpointEntry
	// KindCheckpointEnd closes the snapshot (payload: entry count); only a
	// complete Begin..End group counts as a checkpoint.
	KindCheckpointEnd
	// KindMark is a coordinator resolution marker: with FlagGlobal, every
	// decision before it is fully resolved; without, the single transaction
	// it names is.
	KindMark
	// KindEpoch is a membership record: the stream's primary epoch number
	// rides in the TxID field and an opaque membership blob (the repl
	// layer's role map, JSON) in Meta. Promotion appends one, synced, as
	// its first frame — the durable fencing evidence: a writer of an older
	// epoch was fenced before this frame could exist, so no frame after it
	// can have come from the deposed primary.
	KindEpoch
)

// Frame flags.
const (
	// FlagCross marks a transaction group produced by a cross-System
	// two-phase commit; its txid is the cluster transaction id, which is
	// what recovery's applied-detection keys on.
	FlagCross = 1 << 0
	// FlagGlobal on a KindMark frame resolves every earlier decision.
	FlagGlobal = 1 << 1
)

// OpKind selects what one redo operation does.
type OpKind uint8

const (
	// OpPut stores Key→Value (with Lease) at revision Rev.
	OpPut OpKind = iota
	// OpDelete removes Key, consuming revision Rev.
	OpDelete
)

// Op is one redo operation: the store partition it belongs to (shard index
// on a sharded store, System id in a coordinator decision), what it does,
// and the revision the commit stamped (0 in decision records, where the
// revision is assigned at apply time).
type Op struct {
	Part  int
	Kind  OpKind
	Key   []byte
	Value []byte
	Rev   uint64
	Lease uint64
}

// Record is one decoded frame.
type Record struct {
	Kind  Kind
	Flags uint8
	LSN   uint64
	// TxID is the group id for Begin/Commit/Mark, the entry count for
	// CheckpointEnd, the epoch number for Epoch, and unused otherwise.
	TxID uint64
	// Op carries the payload of KindOp and KindCheckpointEntry frames.
	Op Op
	// Meta carries the membership blob of KindEpoch frames.
	Meta []byte
}

// ErrTorn reports an incomplete trailing frame: the crash cut mid-record.
// Recovery treats it as the end of the log.
var ErrTorn = errors.New("wal: torn frame (log ends mid-record)")

// ErrCorrupt reports a frame that is complete but fails its checksum or
// carries impossible lengths — corruption rather than a clean tear.
var ErrCorrupt = errors.New("wal: corrupt frame")

var format = frame.Format{
	Torn:     ErrTorn,
	Corrupt:  ErrCorrupt,
	TooLarge: errors.New("wal: frame exceeds size bound"),
}

// Encode appends r as one frame to dst and returns the extended slice. It
// panics on a record no reader would accept: an unknown kind or op kind,
// or a body over the frame bound.
func Encode(dst []byte, r Record) []byte {
	c := frame.Begin(dst, &format)
	r.walk(&c)
	b, err := c.Seal()
	if err != nil {
		panic(err)
	}
	return b
}

// Decode reads one frame from the front of b, returning the record and the
// bytes consumed. ErrTorn means b ends mid-frame; ErrCorrupt means the
// frame is complete but invalid. The record's key, value and meta alias b,
// each clipped to its own length, and are nil when empty: b must not be
// rewritten while the record is in use.
func Decode(b []byte) (Record, int, error) {
	c, n, err := frame.Open(b, &format)
	if err != nil {
		return Record{}, 0, err
	}
	var r Record
	r.walk(&c)
	if err := c.Done(); err != nil {
		return Record{}, 0, err
	}
	return r, n, nil
}

// walk is the record's layout, which Encode and Decode both run.
func (r *Record) walk(c *frame.Codec) {
	c.U64(&r.LSN)
	c.U8((*uint8)(&r.Kind))
	c.U8(&r.Flags)
	switch r.Kind {
	case KindBegin, KindCommit, KindMark, KindCheckpointEnd:
		c.U64(&r.TxID)
	case KindOp, KindCheckpointEntry:
		part := uint32(r.Op.Part)
		c.U32(&part)
		r.Op.Part = int(part)
		c.U8((*uint8)(&r.Op.Kind))
		if r.Op.Kind != OpPut && r.Op.Kind != OpDelete {
			c.Fail("op kind %d", r.Op.Kind)
		}
		c.U64(&r.Op.Rev)
		c.U64(&r.Op.Lease)
		c.Blob(&r.Op.Key)
		c.Blob(&r.Op.Value)
	case KindCheckpointBegin:
		// empty payload
	case KindEpoch:
		c.U64(&r.TxID)
		c.Blob(&r.Meta)
	default:
		c.Fail("unknown kind %d", r.Kind)
	}
}
