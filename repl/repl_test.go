package repl_test

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"rhtm"
	"rhtm/cluster"
	"rhtm/containers"
	"rhtm/kv"
	"rhtm/repl"
	"rhtm/store"
	"rhtm/wal"
)

// The repl battery runs on TL2 (software, deterministic); the full 6-engine
// sweep lives in the kv DBReplication battery.

func newLocalPrimary(t *testing.T) (*kv.Local, *wal.MemStorage, wal.Device) {
	t.Helper()
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := rhtm.NewTL2(s)
	st := store.New(s, store.Options{ArenaWords: 1 << 14})
	stg := wal.NewMemStorage()
	dev, err := stg.Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := kv.OpenLocal(eng, st, dev)
	if err != nil {
		t.Fatal(err)
	}
	return db, stg, dev
}

func newLocalReplica(t *testing.T, g *repl.Group) *repl.Follower {
	t.Helper()
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := rhtm.NewTL2(s)
	st := store.New(s, store.Options{ArenaWords: 1 << 14})
	f, err := g.AddLocalReplica(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLocalReplication: a replica tails the primary's log and serves
// follower reads whose watermark is never ahead of the data and never
// behind a drained log.
func TestLocalReplication(t *testing.T) {
	db, _, dev := newLocalPrimary(t)
	g, err := repl.NewLocalGroup(db, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := newLocalReplica(t, g)

	keys := map[string]kv.Revision{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k-%02d", i)
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k-%02d", i)
		_, rev, err := db.GetRev([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = rev
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for k, want := range keys {
		val, rev, wm, err := f.ReadAt([]byte(k), 0)
		if err != nil {
			t.Fatalf("ReadAt(%s, 0): %v", k, err)
		}
		if rev != want {
			t.Fatalf("%s: follower rev %d, primary rev %d", k, rev, want)
		}
		if rev > wm {
			t.Fatalf("%s: rev %d above watermark %d", k, rev, wm)
		}
		if string(val) != fmt.Sprintf("v-%s", k[2:]) && len(val) == 0 {
			t.Fatalf("%s: empty value", k)
		}
		// Read-your-writes at the primary's revision: a drained follower
		// must prove it.
		if _, _, _, err := f.ReadAt([]byte(k), want); err != nil {
			t.Fatalf("ReadAt(%s, %d): %v", k, want, err)
		}
	}
	// A floor beyond the log is provably too stale.
	if _, _, _, err := f.ReadAt([]byte("k-00"), 1<<40); !errors.Is(err, kv.ErrTooStale) {
		t.Fatalf("ReadAt(future floor): %v, want ErrTooStale", err)
	}
	// Absent key: ErrNotFound, watermark still meaningful.
	if _, _, wm, err := f.ReadAt([]byte("missing"), 0); !errors.Is(err, kv.ErrNotFound) || wm == 0 {
		t.Fatalf("ReadAt(missing, 0): wm=%d err=%v", wm, err)
	}

	snap := g.Metrics().Flatten()
	if snap["repl.lag_frames"] != 0 {
		t.Fatalf("drained lag = %d, want 0", snap["repl.lag_frames"])
	}
	if snap["repl.applied_lsn{replica=replica-0,stream=wal}"] == 0 {
		t.Fatalf("applied_lsn gauge missing or zero: %v", snap)
	}
}

// TestLocalFailover: kill the primary mid-life, promote the most-caught-up
// of two replicas, verify zero acknowledged writes lost, zombie commits
// fenced, the epoch frame durable, and the surviving replica following the
// new primary.
func TestLocalFailover(t *testing.T) {
	db, _, dev := newLocalPrimary(t)
	g, err := repl.NewLocalGroup(db, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f0 := newLocalReplica(t, g)
	f1 := newLocalReplica(t, g)

	acked := map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("a-%02d", i), fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}
	if err := db.Delete([]byte("a-00")); err != nil {
		t.Fatal(err)
	}
	delete(acked, "a-00")

	g.Kill()
	// The zombie's writes are rejected before any frame reaches the device.
	if err := db.Put([]byte("zombie"), []byte("x")); !errors.Is(err, kv.ErrFenced) {
		t.Fatalf("zombie Put: %v, want ErrFenced", err)
	}

	newDB, promoted, err := g.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if promoted != f0 && promoted != f1 {
		t.Fatalf("promoted unknown follower %v", promoted.Name())
	}
	for k, v := range acked {
		got, err := newDB.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("after promotion Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	if _, err := newDB.Get([]byte("a-00")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	if _, err := newDB.Get([]byte("zombie")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("zombie write survived the fence: %v", err)
	}

	m := g.Membership()
	if m.Epoch != 2 || m.Primary != promoted.Name() || len(m.Replicas) != 1 {
		t.Fatalf("membership after promotion: %+v", m)
	}
	// The epoch frame is the durable membership record.
	sr, err := wal.OpenDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 2 {
		t.Fatalf("durable epoch %d, want 2", sr.Epoch)
	}

	// The new primary serves writes; the surviving replica follows it.
	if err := newDB.Put([]byte("after"), []byte("promo")); err != nil {
		t.Fatal(err)
	}
	survivor := f0
	if promoted == f0 {
		survivor = f1
	}
	if err := survivor.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if val, _, _, err := survivor.ReadAt([]byte("after"), 0); err != nil || string(val) != "promo" {
		t.Fatalf("survivor read after failover: %q, %v", val, err)
	}

	snap := g.Metrics().Flatten()
	if snap["repl.promotions"] != 1 {
		t.Fatalf("promotions = %d, want 1", snap["repl.promotions"])
	}
	if snap["repl.fenced_frames"] == 0 {
		t.Fatalf("fenced_frames = 0, want the zombie rejection counted")
	}
}

func newClusterPrimary(t *testing.T, systems int) (*kv.ClusterDB, *wal.MemStorage) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Systems:    systems,
		ArenaWords: 1 << 13,
		NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
			return rhtm.NewTL2(s), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stg := wal.NewMemStorage()
	db, err := kv.OpenCluster(c, stg)
	if err != nil {
		t.Fatal(err)
	}
	return db, stg
}

func newClusterReplica(t *testing.T, g *repl.Group, systems int) *repl.Follower {
	t.Helper()
	rc, err := cluster.New(cluster.Config{
		Systems:    systems,
		ArenaWords: 1 << 13,
		NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
			return rhtm.NewTL2(s), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.AddClusterReplica(rc)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestClusterFailover: replicate a multi-System primary — including
// cross-System transactions — kill it, promote, and verify the committed
// state (transfer invariant included) survived intact.
func TestClusterFailover(t *testing.T) {
	const systems = 3
	db, stg := newClusterPrimary(t, systems)
	g, err := repl.NewClusterGroup(db, stg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	f := newClusterReplica(t, g, systems)

	// A transfer workload: value conservation across keys that land on
	// different Systems is the all-or-nothing witness.
	const accounts = 8
	key := func(i int) []byte { return []byte(fmt.Sprintf("acct-%d", i)) }
	for i := 0; i < accounts; i++ {
		if err := db.Put(key(i), []byte{100}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		from, to := i%accounts, (i+3)%accounts
		if from == to {
			continue
		}
		err := db.Update(func(tx kv.Txn) error {
			a, err := tx.Get(key(from))
			if err != nil {
				return err
			}
			b, err := tx.Get(key(to))
			if err != nil {
				return err
			}
			if a[0] == 0 {
				return nil
			}
			if err := tx.Put(key(from), []byte{a[0] - 1}); err != nil {
				return err
			}
			return tx.Put(key(to), []byte{b[0] + 1})
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	g.Kill()
	if err := db.Put([]byte("zombie"), []byte("x")); !errors.Is(err, kv.ErrFenced) {
		t.Fatalf("zombie Put: %v, want ErrFenced", err)
	}
	newDB, promoted, err := g.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if promoted != f {
		t.Fatalf("promoted %v", promoted.Name())
	}

	total := 0
	for i := 0; i < accounts; i++ {
		v, err := newDB.Get(key(i))
		if err != nil {
			t.Fatalf("Get(acct-%d): %v", i, err)
		}
		total += int(v[0])
	}
	if total != accounts*100 {
		t.Fatalf("transfer invariant broken across failover: total %d, want %d", total, accounts*100)
	}
	if _, err := newDB.Get([]byte("zombie")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("zombie write survived: %v", err)
	}
	// The new primary accepts cross-System commits under the new epoch.
	if err := newDB.Update(func(tx kv.Txn) error {
		if err := tx.Put([]byte("x-0"), []byte("1")); err != nil {
			return err
		}
		return tx.Put([]byte("x-7"), []byte("2"))
	}); err != nil {
		t.Fatal(err)
	}
	if m := g.Membership(); m.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", m.Epoch)
	}
}

// TestPromotionEqualsRecovery: promoting a replica and crash-recovering the
// same fenced devices on a fresh cluster reach the same DB — every record
// with its revision and lease, every System clock, the coordinator log's
// resolutions, the next cross-System transaction id and the next lease id.
// Two decisions are in doubt at the fence: one whose applies reached only
// System 0's stream (the redo filter skips that write), one whose applies
// reached neither. A checkpoint before them leaves resolved history in
// front of the filter's window.
func TestPromotionEqualsRecovery(t *testing.T) {
	const systems = 2
	db, stg := newClusterPrimary(t, systems)
	g, err := repl.NewClusterGroup(db, stg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	newClusterReplica(t, g, systems)

	// keys[s] lives on System s.
	var keys [systems][]byte
	for i, found := 0, 0; found < systems; i++ {
		k := []byte(fmt.Sprintf("k-%d", i))
		if s := db.Domain(k); keys[s] == nil {
			keys[s] = k
			found++
		}
	}
	cross := func(d kv.DB, v string) {
		t.Helper()
		if err := d.Update(func(tx kv.Txn) error {
			if err := tx.Put(keys[0], []byte(v+"-0")); err != nil {
				return err
			}
			return tx.Put(keys[1], []byte(v+"-1"))
		}); err != nil {
			t.Fatalf("cross write %s: %v", v, err)
		}
	}
	for i := 0; i < 5; i++ {
		cross(db, fmt.Sprintf("pre-%d", i))
	}
	if _, err := db.Grant(30); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cross(db, "post-checkpoint")
	ws := db.WAL()
	ws.Data[1].Fence()
	cross(db, "half-applied")
	ws.Data[0].Fence()
	cross(db, "unapplied")
	g.Kill()
	img := stg.CrashImage(stg.Appended())

	promoted, _, err := g.Promote()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cluster.New(cluster.Config{
		Systems:    systems,
		ArenaWords: 1 << 13,
		NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
			return rhtm.NewTL2(s), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := kv.OpenCluster(rc, img)
	if err != nil {
		t.Fatal(err)
	}

	pm, rm := promoted.Metrics().Flatten(), recovered.Metrics().Flatten()
	if pm["cluster.wal.indoubt"] != 2 || rm["cluster.wal.indoubt"] != 2 {
		t.Fatalf("in-doubt decisions: promoted %d, recovered %d; want 2",
			pm["cluster.wal.indoubt"], rm["cluster.wal.indoubt"])
	}
	ps, rs := clusterState(promoted.(*kv.ClusterDB).Layout()), clusterState(recovered.Layout())
	if !slices.Equal(ps, rs) {
		t.Fatalf("promoted state != recovered state:\npromoted:  %q\nrecovered: %q", ps, rs)
	}
	pc, rcoord := coordScan(t, stg), coordScan(t, img)
	if !maps.Equal(pc.Marks, rcoord.Marks) || len(pc.Txns) != len(rcoord.Txns) || pc.MaxTxID != rcoord.MaxTxID {
		t.Fatalf("coordinator logs differ: promoted marks %v, %d decisions, max txid %d; recovered marks %v, %d decisions, max txid %d",
			pc.Marks, len(pc.Txns), pc.MaxTxID, rcoord.Marks, len(rcoord.Txns), rcoord.MaxTxID)
	}

	// The counters continue from the same floors.
	cross(promoted, "next")
	cross(recovered, "next")
	pc, rcoord = coordScan(t, stg), coordScan(t, img)
	if p, r := pc.Txns[len(pc.Txns)-1].TxID, rcoord.Txns[len(rcoord.Txns)-1].TxID; p != r {
		t.Fatalf("next cross txid: promoted %d, recovered %d", p, r)
	}
	pl, err := promoted.Grant(30)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := recovered.Grant(30)
	if err != nil {
		t.Fatal(err)
	}
	if pl != rl {
		t.Fatalf("next lease id: promoted %d, recovered %d", pl, rl)
	}
}

// TestLocalPromotionEqualsRecovery is TestPromotionEqualsRecovery on a
// 4-shard Local primary: promoting the drained replica and crash-recovering
// the same fenced device reach the same DB — every record with its
// revision and lease, every partition clock and the next lease id. The
// checkpoint is taken while a second goroutine commits, so the groups after
// it overwrite and delete keys it holds, and those that committed before
// its snapshot but flushed after re-deliver them: recovery applies them
// through the replica's Replay, with no guard of its own.
func TestLocalPromotionEqualsRecovery(t *testing.T) {
	newSide := func() (rhtm.Engine, *store.Sharded) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		return rhtm.NewTL2(s), store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
	}
	eng, st := newSide()
	stg := wal.NewMemStorage()
	dev, err := stg.Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := kv.OpenLocal(eng, st, dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := repl.NewLocalGroup(db, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reng, rst := newSide()
	if _, err := g.AddLocalReplica(reng, rst); err != nil {
		t.Fatal(err)
	}

	lease, err := db.Grant(30)
	if err != nil {
		t.Fatal(err)
	}
	// write is op i of the workload over keys k-00 .. k-(n-1): a put, a
	// leased overwrite or a delete.
	write := func(i, n int) error {
		key := []byte(fmt.Sprintf("k-%02d", i%n))
		switch i % 5 {
		case 2:
			return db.Put(key, []byte(fmt.Sprintf("leased-%d", i)), kv.WithLease(lease))
		case 4:
			if err := db.Delete(key); !errors.Is(err, kv.ErrNotFound) {
				return err
			}
			return nil
		}
		return db.Put(key, []byte(fmt.Sprintf("v-%d", i)))
	}
	for i := 0; i < 48; i++ {
		if err := write(i, 24); err != nil {
			t.Fatal(err)
		}
	}
	// From here on only the first half of the keys is written, so the
	// other half lives in the checkpoint alone.
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		i := 48
		for ; ; i++ {
			select {
			case <-stop:
				// Every written key is written twice more after the
				// last checkpoint.
				for end := i + 24; i < end; i++ {
					if err := write(i, 12); err != nil {
						done <- err
						return
					}
				}
				done <- nil
				return
			default:
			}
			if err := write(i, 12); err != nil {
				done <- err
				return
			}
		}
	}()
	var ckErr error
	for i := 0; i < 4 && ckErr == nil; i++ {
		ckErr = db.Checkpoint()
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ckErr != nil {
		t.Fatal(ckErr)
	}
	g.Kill()
	img := stg.CrashImage(stg.Appended())

	// The suffix recovery replays holds both re-deliveries of the
	// checkpoint's keys and deletes of them.
	data, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	sr := wal.Scan(data)
	held := map[string]uint64{}
	for _, op := range sr.Checkpoint {
		held[string(op.Key)] = op.Rev
	}
	var redelivered, deleted int
	for _, grp := range sr.Txns {
		for _, op := range grp.Ops {
			if rev, ok := held[string(op.Key)]; ok && op.Rev <= rev {
				redelivered++
			} else if ok && op.Kind == wal.OpDelete {
				deleted++
			}
		}
	}
	if len(sr.Checkpoint) == 0 || deleted == 0 {
		t.Fatalf("after the checkpoint (%d entries): %d deletes of its keys; want some", len(sr.Checkpoint), deleted)
	}
	t.Logf("checkpoint of %d entries; after it, %d re-delivered writes and %d deletes of its keys",
		len(sr.Checkpoint), redelivered, deleted)

	promoted, _, err := g.Promote()
	if err != nil {
		t.Fatal(err)
	}
	ceng, cst := newSide()
	cdev, err := img.Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := kv.OpenLocal(ceng, cst, cdev)
	if err != nil {
		t.Fatal(err)
	}
	if ps, rs := storeState(rst), storeState(cst); !slices.Equal(ps, rs) {
		t.Fatalf("promoted state != recovered state:\npromoted:  %q\nrecovered: %q", ps, rs)
	}
	pl, err := promoted.Grant(30)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := recovered.Grant(30)
	if err != nil {
		t.Fatal(err)
	}
	if pl != rl {
		t.Fatalf("next lease id: promoted %d, recovered %d", pl, rl)
	}
}

// clusterState lists every record of every System, reserved keys included,
// with its revision and lease, and each System's revision clock.
func clusterState(streams []kv.Stream) []string {
	var out []string
	for i, s := range streams {
		if s.Store == nil {
			continue // the coordinator decision log holds no state
		}
		for _, line := range storeState(s.Store) {
			out = append(out, fmt.Sprintf("sys %d %s", i, line))
		}
	}
	return out
}

// storeState lists every record of st, reserved keys included, with its
// partition, revision and lease, then every partition clock.
func storeState(st kv.Storer) []string {
	tx := containers.SetupTx(st.System())
	var out []string
	for _, op := range st.Snapshot(tx) {
		out = append(out, fmt.Sprintf("part %d %q=%q rev %d lease %d", op.Part, op.Key, op.Value, op.Rev, op.Lease))
	}
	for i, l := range st.EventLogs() {
		out = append(out, fmt.Sprintf("part %d clock %d", i, l.Rev(tx)))
	}
	return out
}

// coordScan scans the coordinator decision log held in stg.
func coordScan(t *testing.T, stg wal.Storage) wal.ScanResult {
	t.Helper()
	dev, err := stg.Device("coord")
	if err != nil {
		t.Fatal(err)
	}
	data, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return wal.Scan(data)
}

// TestReplicaApplyDescendsOnce pins what one replicated put costs the replica
// against what it cost the primary: the same descent, rewrite and stamp, plus
// the replay guard's one load of the record's revision. The pump used to
// guard every op with a Read of its own — a second descent and the value —
// before ReplayPut descended again: this put then cost the replica 433
// accesses against the primary's 241 (TL2, metadata accesses included; on
// stack-a's RH1 fast path a replicated put read 171 against 111).
func TestReplicaApplyDescendsOnce(t *testing.T) {
	accesses := func(eng rhtm.Engine) uint64 {
		s := eng.Snapshot()
		return s.Reads + s.Writes + s.MetadataReads + s.MetadataWrites
	}
	newSide := func() (rhtm.Engine, *store.Store) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 18))
		return rhtm.NewTL2(s), store.New(s, store.Options{ArenaWords: 1 << 16})
	}
	peng, pst := newSide()
	dev, err := wal.NewMemStorage().Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := kv.OpenLocal(peng, pst, dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := repl.NewLocalGroup(db, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reng, rst := newSide()
	f, err := g.AddLocalReplica(reng, rst)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	value := make([]byte, 64)
	for i := 0; i < 1024; i++ {
		if err := db.Put(key(i*7919%1024), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	p0, r0 := accesses(peng), accesses(reng)
	if err := db.Put(key(500), value); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	primary, replica := accesses(peng)-p0, accesses(reng)-r0
	t.Logf("one put of 1,024: primary %d accesses, replica %d", primary, replica)
	if replica > primary+8 {
		t.Errorf("a replicated put cost the replica %d accesses, the primary %d: want at most 8 more", replica, primary)
	}
}
