package kv_test

import (
	"errors"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// Recovery rigs: durable DBs over crash-injectable MemStorage, plus an
// independent committed-prefix replayer that decodes the crashed image
// into a plain map — the oracle the DBRecovery section diffs recovered
// state against. The replayer shares only the frame codec with the real
// recovery; the apply and in-doubt-resolution logic is its own, so a bug
// in either side shows as a diff.

// localRecoveryFactory rigs a Local DB (shards=0 selects the unsharded
// store) over one WAL device.
func localRecoveryFactory(engineName string, shards, inject int) dbtest.RecoveryFactory {
	build := func(t *testing.T, stg *wal.MemStorage) (kv.DB, *kv.ManualClock, func() error, error) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		eng := newEngine(t, s, engineName, inject)
		clock := kv.NewManualClock()
		dev, err := stg.Device("wal")
		if err != nil {
			return nil, nil, nil, err
		}
		var st kv.Storer
		var validate func() error
		if shards == 0 {
			ss := store.New(s, store.Options{ArenaWords: 1 << 14})
			st, validate = ss, ss.Validate
		} else {
			sh := store.NewSharded(s, shards, store.Options{ArenaWords: 1 << 13})
			st, validate = sh, sh.Validate
		}
		db, err := kv.OpenLocal(eng, st, dev, kv.WithClock(clock))
		if err != nil {
			return nil, nil, nil, err
		}
		return db, clock, validate, nil
	}
	return func(t *testing.T) *dbtest.RecoveryRig {
		stg := wal.NewMemStorage()
		db, clock, _, err := build(t, stg)
		if err != nil {
			t.Fatal(err)
		}
		return &dbtest.RecoveryRig{
			DB:       db,
			Clock:    clock,
			LogBytes: stg.Appended,
			RecoverAt: func(cut uint64) (kv.DB, func() error, error) {
				db2, _, validate, err := build(t, stg.CrashImage(cut))
				return db2, validate, err
			},
			OracleAt: func(cut uint64) (map[string][]byte, error) {
				return localOracle(stg.CrashImage(cut))
			},
		}
	}
}

// clusterRecoveryFactory rigs a ClusterDB over per-System streams plus the
// coordinator decision log.
func clusterRecoveryFactory(engineName string, systems, inject int) dbtest.RecoveryFactory {
	build := func(t *testing.T, stg *wal.MemStorage) (kv.DB, *kv.ManualClock, func() error, error) {
		c, err := cluster.New(cluster.Config{
			Systems:    systems,
			ArenaWords: 1 << 13,
			NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
				return newEngine(t, s, engineName, inject), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		clock := kv.NewManualClock()
		db, err := kv.OpenCluster(c, stg, kv.WithClock(clock))
		if err != nil {
			return nil, nil, nil, err
		}
		return db, clock, c.Validate, nil
	}
	return func(t *testing.T) *dbtest.RecoveryRig {
		stg := wal.NewMemStorage()
		db, clock, _, err := build(t, stg)
		if err != nil {
			t.Fatal(err)
		}
		return &dbtest.RecoveryRig{
			DB:       db,
			Clock:    clock,
			LogBytes: stg.Appended,
			RecoverAt: func(cut uint64) (kv.DB, func() error, error) {
				db2, _, validate, err := build(t, stg.CrashImage(cut))
				return db2, validate, err
			},
			OracleAt: func(cut uint64) (map[string][]byte, error) {
				return clusterOracle(stg.CrashImage(cut), systems)
			},
		}
	}
}

// --- the reference committed-prefix replayer ---

type refEntry struct {
	val     []byte
	present bool
	rev     uint64
}

// refApply plays one redo operation with the per-key revision guard
// (operations with revision 0 — coordinator redo — apply unconditionally).
func refApply(state map[string]*refEntry, op wal.Op) {
	e := state[string(op.Key)]
	if e == nil {
		e = &refEntry{}
		state[string(op.Key)] = e
	}
	if op.Rev != 0 && op.Rev <= e.rev {
		return
	}
	if op.Rev > e.rev {
		e.rev = op.Rev
	}
	if op.Kind == wal.OpPut {
		e.val = append([]byte(nil), op.Value...)
		e.present = true
	} else {
		e.val, e.present = nil, false
	}
}

func refStream(sr wal.ScanResult, state map[string]*refEntry) {
	for _, op := range sr.Checkpoint {
		refApply(state, op)
	}
	for _, g := range sr.Txns {
		for _, op := range g.Ops {
			refApply(state, op)
		}
	}
}

func refScan(stg *wal.MemStorage, name string) (wal.ScanResult, error) {
	dev, err := stg.Device(name)
	if err != nil {
		return wal.ScanResult{}, err
	}
	data, err := dev.Contents()
	if err != nil {
		return wal.ScanResult{}, err
	}
	return wal.Scan(data), nil
}

func refResult(state map[string]*refEntry) map[string][]byte {
	out := map[string][]byte{}
	for k, e := range state {
		if e.present {
			out[k] = e.val
		}
	}
	return out
}

func localOracle(img *wal.MemStorage) (map[string][]byte, error) {
	sr, err := refScan(img, "wal")
	if err != nil {
		return nil, err
	}
	state := map[string]*refEntry{}
	refStream(sr, state)
	return refResult(state), nil
}

func clusterOracle(img *wal.MemStorage, systems int) (map[string][]byte, error) {
	state := map[string]*refEntry{}
	applied := map[uint64]map[string]bool{}
	for i := 0; i < systems; i++ {
		sr, err := refScan(img, fmt.Sprintf("sys-%02d", i))
		if err != nil {
			return nil, err
		}
		refStream(sr, state)
		for _, g := range sr.Txns {
			if !g.Cross {
				continue
			}
			if applied[g.TxID] == nil {
				applied[g.TxID] = map[string]bool{}
			}
			for _, op := range g.Ops {
				applied[g.TxID][string(op.Key)] = true
			}
		}
	}
	csr, err := refScan(img, "coord")
	if err != nil {
		return nil, err
	}
	// In-doubt resolution: committed decisions without their resolution
	// mark re-apply forward, skipping writes the System streams hold.
	for _, g := range csr.Txns {
		if csr.Marks[g.TxID] {
			continue
		}
		for _, op := range g.Ops {
			if applied[g.TxID][string(op.Key)] {
				continue
			}
			refApply(state, op)
		}
	}
	return refResult(state), nil
}

// --- durability unit tests outside the battery ---

// TestCheckpointNeedsWAL: volatile DBs refuse Checkpoint with ErrNoWAL.
func TestCheckpointNeedsWAL(t *testing.T) {
	for name, f := range map[string]dbtest.DBFactory{
		"local":   localFactory("TL2", 2, 0),
		"cluster": clusterFactory("TL2", 2, 0),
	} {
		db, _, _ := f(t)
		if err := db.Checkpoint(); !errors.Is(err, kv.ErrNoWAL) {
			t.Errorf("%s: Checkpoint without WAL: %v, want ErrNoWAL", name, err)
		}
	}
}

// TestCheckpointBoundsReplay: a checkpoint folds the prefix, so the next
// recovery's replayed suffix — and the scan's transaction count — shrinks
// to what committed after it.
func TestCheckpointBoundsReplay(t *testing.T) {
	rig := localRecoveryFactory("TL2", 4, 0)(t)
	db := rig.DB
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Put([]byte(fmt.Sprintf("post-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db2, validate, err := rig.RecoverAt(rig.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	it := db2.Scan(nil, nil, 0)
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 55 {
		t.Fatalf("recovered %d keys (err %v), want 55", n, err)
	}
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}
