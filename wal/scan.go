package wal

import (
	"errors"
	"fmt"
)

// TxnGroup is one committed transaction decoded from the log: its id, the
// cross-System flag, and its redo operations in commit order.
type TxnGroup struct {
	TxID  uint64
	Cross bool
	Ops   []Op
}

// ScanResult is the recovery view of one stream.
type ScanResult struct {
	// Checkpoint holds the entries of the last complete checkpoint group,
	// nil when the log has none.
	Checkpoint []Op
	// Txns lists the committed transaction groups after that checkpoint
	// (after the last global Mark on a coordinator stream), in log order —
	// the committed prefix to replay. A trailing group without its commit
	// frame, and everything after the first torn or corrupt frame, is
	// excluded.
	Txns []TxnGroup
	// Marks holds the per-transaction resolution markers seen after the
	// last global Mark (coordinator streams): decisions recovery may skip.
	Marks map[uint64]bool
	// ValidBytes is the length of the well-formed frame prefix; the device
	// must be truncated to it before new appends continue.
	ValidBytes int
	// NextLSN is one past the LSN of the last frame inside ValidBytes (1 for
	// an empty log): where a writer continues after the truncation.
	NextLSN uint64
	// MaxTxID is the largest cross-transaction id seen anywhere in the log
	// (including resolved history) — the floor for a recovered coordinator's
	// transaction-id counter.
	MaxTxID uint64
	// Epoch is the largest primary epoch recorded in the log (0 when no
	// KindEpoch frame exists), and Membership the blob of the latest such
	// frame — the repl layer's durable role map.
	Epoch      uint64
	Membership []byte
}

// Scan parses one stream's bytes into its recovery view. Scanning is
// forgiving exactly once, at the tail: the first torn or corrupt frame ends
// the log (everything durable before it is kept); a malformed frame
// *sequence* — an op outside a group, a commit without a begin — also ends
// the log there, since the writer never produces one and anything after it
// is untrustworthy.
func Scan(data []byte) ScanResult {
	sr := ScanResult{Marks: map[uint64]bool{}}
	var open *TxnGroup
	var ckpt []Op
	inCkpt := false
	pos := 0
	valid := 0
	sr.NextLSN = 1
	for pos < len(data) {
		rec, n, err := Decode(data[pos:])
		if err != nil {
			break
		}
		bad := false
		switch rec.Kind {
		case KindBegin:
			if open != nil || inCkpt {
				bad = true
				break
			}
			open = &TxnGroup{TxID: rec.TxID, Cross: rec.Flags&FlagCross != 0}
			if open.Cross && rec.TxID > sr.MaxTxID {
				sr.MaxTxID = rec.TxID
			}
		case KindOp:
			if open == nil {
				bad = true
				break
			}
			open.Ops = append(open.Ops, rec.Op)
		case KindCommit:
			if open == nil || rec.TxID != open.TxID {
				bad = true
				break
			}
			sr.Txns = append(sr.Txns, *open)
			open = nil
		case KindCheckpointBegin:
			if open != nil || inCkpt {
				bad = true
				break
			}
			inCkpt = true
			ckpt = nil
		case KindCheckpointEntry:
			if !inCkpt {
				bad = true
				break
			}
			ckpt = append(ckpt, rec.Op)
		case KindCheckpointEnd:
			if !inCkpt || rec.TxID != uint64(len(ckpt)) {
				bad = true
				break
			}
			inCkpt = false
			if ckpt == nil {
				ckpt = []Op{}
			}
			sr.Checkpoint = ckpt
			sr.Txns = nil // replay restarts from the checkpoint
		case KindMark:
			if open != nil || inCkpt {
				bad = true
				break
			}
			if rec.TxID > sr.MaxTxID {
				sr.MaxTxID = rec.TxID
			}
			if rec.Flags&FlagGlobal != 0 {
				sr.Txns = nil
				sr.Marks = map[uint64]bool{}
			} else {
				sr.Marks[rec.TxID] = true
			}
		case KindEpoch:
			if open != nil || inCkpt {
				bad = true
				break
			}
			if rec.TxID >= sr.Epoch {
				sr.Epoch = rec.TxID
				sr.Membership = rec.Meta
			}
		default:
			bad = true
		}
		if bad {
			break
		}
		pos += n
		// The truncate point only advances at unit boundaries: a trailing
		// group the crash cut before its commit frame must be truncated
		// away entirely, or the next writer would append fresh groups after
		// a dangling begin and poison every later scan. The next LSN moves
		// with it, so the writer continues the LSN sequence of the bytes
		// that survive the truncation.
		if open == nil && !inCkpt {
			valid = pos
			sr.NextLSN = rec.LSN + 1
		}
	}
	sr.ValidBytes = valid
	return sr
}

// OpenDevice scans dev, truncates its torn tail, and returns the recovery
// view — the one entry point the kv layer's Open paths use.
func OpenDevice(dev Device) (ScanResult, error) {
	data, err := dev.Contents()
	if err != nil {
		return ScanResult{}, fmt.Errorf("wal: read device: %w", err)
	}
	sr := Scan(data)
	if sr.ValidBytes < len(data) {
		if err := dev.Truncate(sr.ValidBytes); err != nil {
			return ScanResult{}, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return sr, nil
}

// ErrNoWAL reports a durability operation on a DB opened without a log.
var ErrNoWAL = errors.New("wal: no log attached")
