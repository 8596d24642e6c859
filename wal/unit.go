package wal

import (
	"errors"
	"fmt"
)

// The unit grammar, in both directions. A log is a sequence of units whose
// frames carry consecutive LSNs from 1, with no gap between units:
//
//	txn group:   Begin(txid) Op* Commit(txid)
//	checkpoint:  CheckpointBegin CheckpointEntry* CheckpointEnd(entry count)
//	mark:        Mark(txid)
//	epoch:       Epoch(epoch, membership)
//
// appendUnit is the only encoder of that sequence (the Writer appends
// through it) and readUnit the only decoder (Scan folds it, the Tailer
// streams it), so recovery and a replica read the same units from the same
// bytes and stop at the same place.

// UnitKind classifies one unit.
type UnitKind uint8

const (
	// UnitTxn is one committed transaction group.
	UnitTxn UnitKind = 1 + iota
	// UnitCheckpoint is one complete in-log snapshot.
	UnitCheckpoint
	// UnitMark is a coordinator resolution marker.
	UnitMark
	// UnitEpoch is a membership/epoch record.
	UnitEpoch
)

// Unit is one decoded unit of the log.
type Unit struct {
	Kind UnitKind
	// Txn is the transaction group of a UnitTxn.
	Txn TxnGroup
	// Checkpoint holds the snapshot entries of a UnitCheckpoint.
	Checkpoint []Op
	// TxID is the group's id (UnitTxn), the mark's transaction id (UnitMark)
	// or the epoch number (UnitEpoch).
	TxID uint64
	// Flags carries the frame flags of a UnitMark (FlagGlobal) or the
	// group's flags for a UnitTxn.
	Flags uint8
	// Meta is the membership blob of a UnitEpoch.
	Meta []byte
	// EndLSN is the last frame's LSN; EndOff the device offset just past the
	// unit — together the resume cursor after applying it.
	EndLSN uint64
	EndOff int
}

// ErrBadStream reports a corrupt frame or a malformed frame sequence —
// damage, not a tail still being written.
var ErrBadStream = errors.New("wal: malformed stream")

// appendUnit appends u's frames to dst, the first at LSN lsn and every
// frame carrying u.Flags, and returns the extended buffer and the unit's
// last LSN.
func appendUnit(dst []byte, u *Unit, lsn uint64) ([]byte, uint64) {
	last := Record{Flags: u.Flags, TxID: u.TxID, Meta: u.Meta}
	var open, entry Kind
	var body []Op
	switch u.Kind {
	case UnitTxn:
		open, entry, body = KindBegin, KindOp, u.Txn.Ops
		last.Kind, last.TxID = KindCommit, u.Txn.TxID
	case UnitCheckpoint:
		open, entry, body = KindCheckpointBegin, KindCheckpointEntry, u.Checkpoint
		last.Kind, last.TxID = KindCheckpointEnd, uint64(len(body))
	case UnitMark:
		last.Kind = KindMark
	case UnitEpoch:
		last.Kind = KindEpoch
	default:
		panic(fmt.Sprintf("wal: encode of unknown unit kind %d", u.Kind))
	}
	if open != 0 {
		dst = Encode(dst, Record{Kind: open, Flags: u.Flags, LSN: lsn, TxID: last.TxID})
		for i := range body {
			lsn++
			dst = Encode(dst, Record{Kind: entry, Flags: u.Flags, LSN: lsn, Op: body[i]})
		}
		lsn++
	}
	last.LSN = lsn
	return Encode(dst, last), lsn
}

// readUnit decodes the one whole unit at the front of b, whose first frame
// must carry LSN lsn. The unit's EndOff is the number of bytes it spans in
// b. It returns ErrTorn while b holds only a prefix of the unit, and an
// error wrapping ErrBadStream (and ErrCorrupt for a frame failing its
// checksum or lengths) for damage: a bad frame, a frame out of sequence, or
// a frame whose LSN is not the next one.
func readUnit(b []byte, lsn uint64) (Unit, error) {
	var u Unit
	for pos := 0; ; lsn++ {
		rec, n, err := Decode(b[pos:])
		if errors.Is(err, ErrTorn) {
			return Unit{}, ErrTorn
		}
		if err != nil {
			return Unit{}, fmt.Errorf("%w: %w", ErrBadStream, err)
		}
		if rec.LSN != lsn {
			return Unit{}, fmt.Errorf("%w: frame LSN %d, want %d", ErrBadStream, rec.LSN, lsn)
		}
		first := pos == 0
		pos += n
		ok, done := first, true
		switch rec.Kind {
		case KindBegin:
			u = Unit{Kind: UnitTxn, Flags: rec.Flags, TxID: rec.TxID,
				Txn: TxnGroup{TxID: rec.TxID, Cross: rec.Flags&FlagCross != 0}}
			done = false
		case KindOp:
			ok, done = u.Kind == UnitTxn, false
			u.Txn.Ops = append(u.Txn.Ops, rec.Op)
		case KindCommit:
			ok = u.Kind == UnitTxn && rec.TxID == u.TxID
		case KindCheckpointBegin:
			u = Unit{Kind: UnitCheckpoint, Flags: rec.Flags, Checkpoint: []Op{}}
			done = false
		case KindCheckpointEntry:
			ok, done = u.Kind == UnitCheckpoint, false
			u.Checkpoint = append(u.Checkpoint, rec.Op)
		case KindCheckpointEnd:
			ok = u.Kind == UnitCheckpoint && rec.TxID == uint64(len(u.Checkpoint))
		case KindMark:
			u = Unit{Kind: UnitMark, Flags: rec.Flags, TxID: rec.TxID}
		case KindEpoch:
			u = Unit{Kind: UnitEpoch, Flags: rec.Flags, TxID: rec.TxID, Meta: rec.Meta}
		}
		if !ok {
			return Unit{}, fmt.Errorf("%w: kind %d at LSN %d", ErrBadStream, rec.Kind, rec.LSN)
		}
		if done {
			u.EndLSN, u.EndOff = lsn, pos
			return u, nil
		}
	}
}
