package server_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"rhtm"
	"rhtm/client"
	"rhtm/cluster"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/repl"
	"rhtm/server"
	"rhtm/server/wire"
	"rhtm/wal"
)

func newTraceCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Systems:    2,
		ArenaWords: 1 << 13,
		NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
			return rhtm.NewTL2(s), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// render is a trace's normalized form: its kind and error, then each stage
// in start order with its note, the engine stage folding in the attempt
// count and final outcome. It holds no wall-clock value, so a fixed
// schedule renders byte-identically across runs.
func render(ts obs.TraceSnapshot) string {
	stages := append([]obs.Stage(nil), ts.Stages...)
	sort.SliceStable(stages, func(i, j int) bool { return stages[i].Start < stages[j].Start })
	out := "trace " + ts.Kind
	if ts.Err != "" {
		out += " err=" + ts.Err
	}
	out += "\n"
	for _, st := range stages {
		out += "  " + st.Name
		if st.Name == obs.StageEngine && len(ts.Spans) > 0 {
			out += fmt.Sprintf(" attempts=%d %s", len(ts.Spans), ts.Spans[len(ts.Spans)-1].Outcome)
		}
		if st.Note != "" {
			out += " " + st.Note
		}
		out += "\n"
	}
	return out
}

func hasStage(ts obs.TraceSnapshot, name string) bool {
	for _, st := range ts.Stages {
		if st.Name == name {
			return true
		}
	}
	return false
}

// lastTrace returns the most recent trace of the given kind in f, waiting
// until cond holds on it (replica_apply annotations arrive after the
// response frame, so the dump converges rather than appears).
func lastTrace(t *testing.T, f *obs.Flight, kind string, cond func(obs.TraceSnapshot) bool) obs.TraceSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := f.Dump()
		if kd, ok := d.Kinds[kind]; ok && len(kd.Recent) > 0 {
			ts := kd.Recent[len(kd.Recent)-1]
			if cond(ts) {
				return ts
			}
		}
		if time.Now().After(deadline) {
			d := f.Dump()
			t.Fatalf("no %q trace satisfying condition; dump kinds: %+v", kind, d.Kinds)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceEndToEnd drives one sampled transaction through the full
// distributed path — client → TCP server → 2-System cluster → WAL group
// commit → 2PC → replica apply — and checks that the trace id on the wire
// links a client-side trace (net stage) to a server-side trace carrying
// the typed stages of every layer, in monotonic order, with a
// byte-identical normalized rendering.
func TestTraceEndToEnd(t *testing.T) {
	db, stg := func() (*kv.ClusterDB, *wal.MemStorage) {
		stg := wal.NewMemStorage()
		db, err := kv.OpenCluster(newTraceCluster(t), stg)
		if err != nil {
			t.Fatal(err)
		}
		return db, stg
	}()
	g, err := repl.NewClusterGroup(db, stg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.AddClusterReplica(newTraceCluster(t)); err != nil {
		t.Fatal(err)
	}

	srv := server.New(db, server.WithReplicaStatus(func() []wire.ReplicaHealth {
		sts := g.Status()
		out := make([]wire.ReplicaHealth, len(sts))
		for i, st := range sts {
			out[i] = wire.ReplicaHealth(st)
		}
		return out
	}))
	g.SetFlight(srv.Flight())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := client.Dial(addr.String(), client.WithTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A blind-write transaction over enough distinct keys that both
	// Systems participate: the commit runs the full cross-System path
	// (prepare, coordinator decision sync, finish).
	err = cl.Update(func(tx kv.Txn) error {
		for i := 0; i < 8; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("trace-key-%d", i)), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	srvTxn := lastTrace(t, srv.Flight(), "txn", func(ts obs.TraceSnapshot) bool {
		return hasStage(ts, obs.StageReplicaApply)
	})

	const wantTxn = "trace txn\n" +
		"  queue_wait\n" +
		"  engine attempts=1 commit\n" +
		"  2pc_prepare\n" +
		"  wal_sync\n" +
		"  2pc_finish\n" +
		"  replica_apply replica=replica-0\n"
	if got := render(srvTxn); got != wantTxn {
		t.Fatalf("server txn trace rendering:\n%s\nwant:\n%s", got, wantTxn)
	}
	if srvTxn.CommitRev == 0 {
		t.Fatalf("server txn trace lost its commit revision")
	}
	for _, st := range srvTxn.Stages {
		if st.Start < 0 || st.Dur < 0 {
			t.Fatalf("stage %s has negative stamp: start=%d dur=%d", st.Name, st.Start, st.Dur)
		}
	}

	// The client-side half of the same trace: one net stage, recorded
	// under the identical wire trace id.
	clTxn := lastTrace(t, cl.Flight(), "txn", func(obs.TraceSnapshot) bool { return true })
	if clTxn.ID != srvTxn.ID {
		t.Fatalf("trace ids diverge across the wire: client %d, server %d", clTxn.ID, srvTxn.ID)
	}
	const wantClient = "trace txn\n  net\n"
	if got := render(clTxn); got != wantClient {
		t.Fatalf("client txn trace rendering:\n%s\nwant:\n%s", got, wantClient)
	}
	if clTxn.WallNS == 0 || clTxn.Stages[0].Dur <= 0 {
		t.Fatalf("client net stage not stamped: %+v", clTxn)
	}
	// The net stage excludes the server's echoed handling time, so it must
	// be strictly shorter than the whole round trip.
	if uint64(clTxn.Stages[0].Dur) >= clTxn.WallNS {
		t.Fatalf("net stage (%d) not reduced by server handling time (wall %d)", clTxn.Stages[0].Dur, clTxn.WallNS)
	}

	// A traced single-key Put takes the cross-connection batcher path:
	// batch_wait instead of queue_wait, its batch's one attempt as any
	// Batch reports it, and still links to replica apply.
	if err := cl.Put([]byte("trace-put"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srvPut := lastTrace(t, srv.Flight(), "put", func(ts obs.TraceSnapshot) bool {
		return hasStage(ts, obs.StageReplicaApply)
	})
	const wantPut = "trace put\n" +
		"  batch_wait\n" +
		"  engine attempts=1 commit\n" +
		"  replica_apply replica=replica-0\n"
	if got := render(srvPut); got != wantPut {
		t.Fatalf("server put trace rendering:\n%s\nwant:\n%s", got, wantPut)
	}

	// Admin RPCs over the same connection pool.
	h, err := cl.AdminHealth()
	if err != nil {
		t.Fatal(err)
	}
	if h.Requests == 0 || h.UptimeNS == 0 || h.Connections == 0 {
		t.Fatalf("health counters empty: %+v", h)
	}
	if len(h.Replicas) == 0 || h.Replicas[0].Name != "replica-0" {
		t.Fatalf("health replicas: %+v", h.Replicas)
	}
	h2, err := cl.AdminHealth()
	if err != nil {
		t.Fatal(err)
	}
	if h2.Requests <= h.Requests {
		t.Fatalf("request counter not monotone across polls: %d then %d", h.Requests, h2.Requests)
	}

	d, err := cl.AdminTraces()
	if err != nil {
		t.Fatal(err)
	}
	kd, ok := d.Kinds["txn"]
	if !ok || kd.Count == 0 || len(kd.Recent) == 0 {
		t.Fatalf("trace dump missing txn kind: %+v", d.Kinds)
	}
	if st, ok := kd.Stages[obs.Stage2PCPrepare]; !ok || st.Count == 0 {
		t.Fatalf("trace dump missing 2pc_prepare stage stats: %+v", kd.Stages)
	}

	snap, err := cl.AdminMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Flatten()) == 0 {
		t.Fatalf("admin metrics snapshot empty")
	}
}
