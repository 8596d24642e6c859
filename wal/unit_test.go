package wal

import (
	"errors"
	"maps"
	"reflect"
	"testing"
)

// TestReadersAgree pins recovery and replication to one reading of the log:
// at every byte cut of a Writer-produced log and of two damaged ones, Scan
// ends the log exactly where a Tailer over the same bytes stops, and Scan's
// recovery view is the fold of the units the Tailer returned.
func TestReadersAgree(t *testing.T) {
	put := func(part int, key string, rev uint64) Op {
		return Op{Part: part, Kind: OpPut, Key: []byte(key), Value: []byte("v-" + key), Rev: rev}
	}

	// Every unit kind, as the Writer lays them out.
	dev := &MemDevice{}
	w := NewWriter(dev, 1, map[int]uint64{0: 1}, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Commit(1, 0, []Op{put(0, "a", 1), {Part: 0, Kind: OpDelete, Key: []byte("b"), Rev: 2}}))
	must(w.Commit(7, FlagCross, []Op{put(1, "x", 0), put(2, "y", 0)}))
	must(w.Mark(7, 0))
	must(w.Checkpoint(func() ([]Op, error) { return []Op{put(0, "a", 1)}, nil }))
	must(w.Commit(2, 0, []Op{put(0, "c", 3)}))
	must(w.Commit(9, FlagCross, []Op{put(1, "z", 0)}))
	must(w.Mark(0, FlagGlobal))
	must(w.AppendEpoch(3, []byte("members")))
	must(w.Commit(11, FlagCross, []Op{put(2, "w", 0)}))
	must(w.Mark(11, 0))
	writerLog, _ := dev.Contents()

	// Two groups whose second one's LSNs skip by 5: the Writer never leaves
	// a gap, so the log ends after the first group.
	g1 := Unit{Kind: UnitTxn, TxID: 1, Txn: TxnGroup{TxID: 1, Ops: []Op{put(0, "a", 1)}}}
	g2 := Unit{Kind: UnitTxn, TxID: 2, Txn: TxnGroup{TxID: 2, Ops: []Op{put(0, "b", 2), put(0, "c", 3)}}}
	gapLog, last := appendUnit(nil, &g1, 1)
	gapLog, _ = appendUnit(gapLog, &g2, last+1+5)

	// A whole group whose commit names another transaction.
	txidLog, last := appendUnit(nil, &g1, 1)
	txidLog = Encode(txidLog, Record{Kind: KindBegin, LSN: last + 1, TxID: 2})
	txidLog = Encode(txidLog, Record{Kind: KindOp, LSN: last + 2, TxID: 2, Op: put(0, "b", 2)})
	txidLog = Encode(txidLog, Record{Kind: KindCommit, LSN: last + 3, TxID: 3})

	for _, c := range []struct {
		name    string
		log     []byte
		damaged bool
	}{
		{"writer", writerLog, false},
		{"lsn-gap", gapLog, true},
		{"wrong-txid", txidLog, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for cut := 0; cut <= len(c.log); cut++ {
				sr := Scan(c.log[:cut])
				units, err := tailAll(c.log[:cut])
				if err != nil && !errors.Is(err, ErrBadStream) {
					t.Fatalf("cut %d: tailer: %v", cut, err)
				}
				if cut == len(c.log) && (err != nil) != c.damaged {
					t.Fatalf("whole log: tailer error %v, damaged %v", err, c.damaged)
				}
				endOff, endLSN := 0, uint64(0)
				if len(units) > 0 {
					endOff, endLSN = units[len(units)-1].EndOff, units[len(units)-1].EndLSN
				}
				if sr.ValidBytes != endOff || sr.NextLSN != endLSN+1 {
					t.Fatalf("cut %d: Scan ends at %d/LSN %d, tailer at %d/LSN %d",
						cut, sr.ValidBytes, sr.NextLSN, endOff, endLSN+1)
				}
				want := foldUnits(units)
				if !reflect.DeepEqual(sr.Checkpoint, want.Checkpoint) || !reflect.DeepEqual(sr.Txns, want.Txns) ||
					!maps.Equal(sr.Marks, want.Marks) || sr.MaxTxID != want.MaxTxID ||
					sr.Epoch != want.Epoch || string(sr.Membership) != string(want.Membership) {
					t.Fatalf("cut %d: Scan %+v, fold of the tailer's units %+v", cut, sr, want)
				}
			}
		})
	}
}

// tailAll returns every unit a fresh Tailer reads from data before tryNext
// reports no unit or an error, and that error.
func tailAll(data []byte) ([]Unit, error) {
	dev := &MemDevice{}
	if err := dev.Append(data); err != nil {
		return nil, err
	}
	tl := NewTailer(dev, 0, 1)
	var units []Unit
	for {
		u, ok, err := tryNext(tl)
		if err != nil || !ok {
			return units, err
		}
		units = append(units, u)
	}
}

// foldUnits is the recovery view of a unit sequence, spelled out from the
// ScanResult contract: replay restarts at a checkpoint and at a global
// mark, MaxTxID covers whole cross groups and marks, the newest epoch wins.
func foldUnits(units []Unit) ScanResult {
	sr := ScanResult{Marks: map[uint64]bool{}}
	for _, u := range units {
		switch u.Kind {
		case UnitTxn:
			sr.Txns = append(sr.Txns, u.Txn)
			if u.Flags&FlagCross != 0 && u.TxID > sr.MaxTxID {
				sr.MaxTxID = u.TxID
			}
		case UnitCheckpoint:
			sr.Checkpoint, sr.Txns = u.Checkpoint, nil
		case UnitMark:
			sr.MaxTxID = max(sr.MaxTxID, u.TxID)
			if u.Flags&FlagGlobal != 0 {
				sr.Txns, sr.Marks = nil, map[uint64]bool{}
			} else {
				sr.Marks[u.TxID] = true
			}
		case UnitEpoch:
			if u.TxID >= sr.Epoch {
				sr.Epoch, sr.Membership = u.TxID, u.Meta
			}
		}
	}
	return sr
}
