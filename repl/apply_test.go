package repl

import (
	"testing"

	"rhtm"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// TestReplicaApplyAllocs: a replica applies a unit without allocating on
// the host. Each data stream's pump binds its Replay body once, and the
// unit's ops are the tailer's own, decoded fresh for every unit. A closure
// built per unit, or a revision one captures, fails it.
func TestReplicaApplyAllocs(t *testing.T) {
	newSide := func() (*rhtm.System, *store.Sharded) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		return s, store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
	}
	ps, pst := newSide()
	dev, err := wal.NewMemStorage().Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := kv.OpenLocal(rhtm.NewTL2(ps), pst, dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewLocalGroup(db, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rs, rst := newSide()
	reng := rhtm.NewTL2(rs)
	f, err := g.AddLocalReplica(reng, rst)
	if err != nil {
		t.Fatal(err)
	}
	// The follower's own pump idles on an empty log; this applier stands for
	// it on a thread of its own.
	a := &applier{f: f, th: reng.NewThread(), st: rst}
	a.body = a.replay
	ops := []wal.Op{{Kind: wal.OpPut, Key: []byte("key-0001"), Value: []byte("value-0001")}}
	apply := func() {
		ops[0].Rev++
		maxRev, err := a.applyOps(ops)
		if err != nil || maxRev != ops[0].Rev {
			t.Fatalf("applyOps = %d, %v; want %d, nil", maxRev, err, ops[0].Rev)
		}
	}
	// Warm the lines the key's record touches before counting.
	for i := 0; i < 100; i++ {
		apply()
	}
	if n := testing.AllocsPerRun(200, apply); n != 0 {
		t.Errorf("applying a one-op unit allocates %v times, want 0", n)
	}
	if v, _, _, err := f.ReadAt(ops[0].Key, 0); err != nil || string(v) != "value-0001" {
		t.Errorf("replica reads %q, %v; want value-0001", v, err)
	}
}
