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
	// frame, and everything from the first unit readUnit rejects, is
	// excluded.
	Txns []TxnGroup
	// Marks holds the per-transaction resolution markers seen after the
	// last global Mark (coordinator streams): decisions recovery may skip.
	Marks map[uint64]bool
	// ValidBytes is the length of the prefix of whole units; the device
	// must be truncated to it before new appends continue.
	ValidBytes int
	// NextLSN is one past the LSN of the last frame inside ValidBytes (1 for
	// an empty log): where a writer continues after the truncation.
	NextLSN uint64
	// MaxTxID is the largest id of a whole cross group or mark inside
	// ValidBytes (including resolved history) — the floor for a recovered
	// coordinator's transaction-id counter.
	MaxTxID uint64
	// Epoch is the largest primary epoch recorded in the log (0 when no
	// KindEpoch frame exists), and Membership the blob of the latest such
	// frame — the repl layer's durable role map.
	Epoch      uint64
	Membership []byte
}

// Scan parses one stream's bytes into its recovery view: a fold of readUnit
// over the log that ends it at the first unit readUnit cannot return —
// torn, corrupt, out of sequence, or off the LSN sequence from 1. That is
// exactly where a Tailer over the same bytes stops, so a replica applies
// the committed prefix recovery would replay. ValidBytes and NextLSN move
// per whole unit: a trailing group the crash cut before its commit frame
// is truncated away entirely, or the next writer would append fresh groups
// after a dangling begin and poison every later scan.
func Scan(data []byte) ScanResult {
	sr := ScanResult{Marks: map[uint64]bool{}, NextLSN: 1}
	for {
		u, err := readUnit(data[sr.ValidBytes:], sr.NextLSN)
		if err != nil {
			return sr
		}
		sr.ValidBytes += u.EndOff
		sr.NextLSN = u.EndLSN + 1
		switch u.Kind {
		case UnitTxn:
			sr.Txns = append(sr.Txns, u.Txn)
			if u.Txn.Cross {
				sr.MaxTxID = max(sr.MaxTxID, u.TxID)
			}
		case UnitCheckpoint:
			sr.Checkpoint = u.Checkpoint
			sr.Txns = nil // replay restarts from the checkpoint
		case UnitMark:
			sr.MaxTxID = max(sr.MaxTxID, u.TxID)
			if u.Flags&FlagGlobal != 0 {
				sr.Txns = nil
				sr.Marks = map[uint64]bool{}
			} else {
				sr.Marks[u.TxID] = true
			}
		case UnitEpoch:
			if u.TxID >= sr.Epoch {
				sr.Epoch, sr.Membership = u.TxID, u.Meta
			}
		}
	}
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
