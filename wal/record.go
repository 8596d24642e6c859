package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout (all integers little-endian):
//
//	offset 0  u32  body length B
//	offset 4  u32  CRC-32C over the body
//	offset 8  B bytes of body:
//	          u64  LSN (monotone per stream)
//	          u8   kind
//	          u8   flags
//	          payload (kind-specific, below)
//
// Payloads:
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
	kindMax
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

// frame header and payload bounds.
const (
	frameHeader = 8  // length + crc
	bodyHeader  = 10 // lsn + kind + flags
	// maxPayloadBytes bounds key/value lengths so corrupt length words fail
	// fast instead of allocating gigabytes.
	maxPayloadBytes = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode appends r as one frame to dst and returns the extended slice.
func Encode(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = appendU64(dst, r.LSN)
	dst = append(dst, byte(r.Kind), r.Flags)
	switch r.Kind {
	case KindBegin, KindCommit, KindMark, KindCheckpointEnd:
		dst = appendU64(dst, r.TxID)
	case KindOp, KindCheckpointEntry:
		dst = appendU32(dst, uint32(r.Op.Part))
		dst = append(dst, byte(r.Op.Kind))
		dst = appendU64(dst, r.Op.Rev)
		dst = appendU64(dst, r.Op.Lease)
		dst = appendU32(dst, uint32(len(r.Op.Key)))
		dst = append(dst, r.Op.Key...)
		dst = appendU32(dst, uint32(len(r.Op.Value)))
		dst = append(dst, r.Op.Value...)
	case KindCheckpointBegin:
		// empty payload
	case KindEpoch:
		dst = appendU64(dst, r.TxID)
		dst = appendU32(dst, uint32(len(r.Meta)))
		dst = append(dst, r.Meta...)
	default:
		panic(fmt.Sprintf("wal: encode of unknown kind %d", r.Kind))
	}
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst
}

// Decode reads one frame from the front of b, returning the record and the
// bytes consumed. ErrTorn means b ends mid-frame; ErrCorrupt means the
// frame is complete but invalid. The record's key, value and meta alias b,
// each clipped to its own length, and are nil when empty: b must not be
// rewritten while the record is in use.
func Decode(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, ErrTorn
	}
	blen := int(binary.LittleEndian.Uint32(b))
	if blen < bodyHeader || blen > maxPayloadBytes {
		return Record{}, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, blen)
	}
	if len(b) < frameHeader+blen {
		return Record{}, 0, ErrTorn
	}
	body := b[frameHeader : frameHeader+blen]
	if crc := crc32.Checksum(body, crcTable); crc != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := Record{
		LSN:   binary.LittleEndian.Uint64(body),
		Kind:  Kind(body[8]),
		Flags: body[9],
	}
	p := body[bodyHeader:]
	switch r.Kind {
	case KindBegin, KindCommit, KindMark, KindCheckpointEnd:
		if len(p) != 8 {
			return Record{}, 0, fmt.Errorf("%w: kind %d payload %d bytes", ErrCorrupt, r.Kind, len(p))
		}
		r.TxID = binary.LittleEndian.Uint64(p)
	case KindOp, KindCheckpointEntry:
		if len(p) < 4+1+8+8+4 {
			return Record{}, 0, fmt.Errorf("%w: op payload %d bytes", ErrCorrupt, len(p))
		}
		r.Op.Part = int(binary.LittleEndian.Uint32(p))
		r.Op.Kind = OpKind(p[4])
		if r.Op.Kind != OpPut && r.Op.Kind != OpDelete {
			return Record{}, 0, fmt.Errorf("%w: op kind %d", ErrCorrupt, r.Op.Kind)
		}
		r.Op.Rev = binary.LittleEndian.Uint64(p[5:])
		r.Op.Lease = binary.LittleEndian.Uint64(p[13:])
		klen := int(binary.LittleEndian.Uint32(p[21:]))
		p = p[25:]
		if klen < 0 || klen > len(p) {
			return Record{}, 0, fmt.Errorf("%w: key length %d", ErrCorrupt, klen)
		}
		if klen > 0 {
			r.Op.Key = p[:klen:klen]
		}
		p = p[klen:]
		if len(p) < 4 {
			return Record{}, 0, fmt.Errorf("%w: missing value length", ErrCorrupt)
		}
		vlen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if vlen < 0 || vlen != len(p) {
			return Record{}, 0, fmt.Errorf("%w: value length %d of %d", ErrCorrupt, vlen, len(p))
		}
		if vlen > 0 {
			r.Op.Value = p[:vlen:vlen]
		}
	case KindCheckpointBegin:
		if len(p) != 0 {
			return Record{}, 0, fmt.Errorf("%w: checkpoint-begin payload", ErrCorrupt)
		}
	case KindEpoch:
		if len(p) < 12 {
			return Record{}, 0, fmt.Errorf("%w: epoch payload %d bytes", ErrCorrupt, len(p))
		}
		r.TxID = binary.LittleEndian.Uint64(p)
		mlen := int(binary.LittleEndian.Uint32(p[8:]))
		if mlen != len(p)-12 {
			return Record{}, 0, fmt.Errorf("%w: epoch blob length %d of %d", ErrCorrupt, mlen, len(p)-12)
		}
		if mlen > 0 {
			r.Meta = p[12 : 12+mlen : 12+mlen]
		}
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, r.Kind)
	}
	return r, frameHeader + blen, nil
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
