package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
	"rhtm/server/wire"
	"rhtm/wal"
)

// newClusterDB is the two-domain backend of the lane tests: a 2-System
// cluster logging to an in-memory WAL.
func newClusterDB(t *testing.T) *kv.ClusterDB {
	t.Helper()
	db, err := kv.OpenCluster(newTraceCluster(t), wal.NewMemStorage())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// keysOn returns n distinct keys "<prefix>-<i>" that db places on domain dom.
func keysOn(db kv.DB, dom, n int, prefix string) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(prefix + "-" + strconv.Itoa(i))
		if db.Domain(k) == dom {
			keys = append(keys, k)
		}
	}
	return keys
}

// laneSpy is the counting kv.Served double of the lane tests: it sees what
// the batcher asks of the DB and passes it on. A merged batch arrives
// through BatchTraced, and so does each op of a batch that failed, re-run
// alone: the spy counts those as singles.
type laneSpy struct {
	kv.Served
	// gate, when non-nil, parks every merged batch until it is closed.
	gate chan struct{}

	mu      sync.Mutex
	batches map[int]int // merged batches, by the domain of their first key
	merged  int         // ops that rode in a batch behind its first
	mixed   int         // merged batches whose keys span domains
	parked  int         // merged batches that reached the gate
	singles map[int]int // ops re-run alone (the fallback path), by domain
	replay  map[int]int // ops of a failed batch not yet re-run, by domain
}

func newLaneSpy(db kv.Served) *laneSpy {
	return &laneSpy{Served: db, batches: map[int]int{}, singles: map[int]int{}, replay: map[int]int{}}
}

func (s *laneSpy) BatchTraced(sink obs.TraceSink, ops []kv.Op) ([]kv.OpResult, error) {
	dom := s.Domain(ops[0].Key)
	s.mu.Lock()
	if s.replay[dom] > 0 {
		// A lane re-runs a failed batch's ops before it takes another.
		s.replay[dom]--
		s.singles[dom]++
		s.mu.Unlock()
		return s.Served.BatchTraced(sink, ops)
	}
	s.batches[dom]++
	s.merged += len(ops) - 1
	for _, op := range ops[1:] {
		if s.Domain(op.Key) != dom {
			s.mixed++
			break
		}
	}
	s.parked++
	s.mu.Unlock()
	if s.gate != nil {
		<-s.gate
	}
	res, err := s.Served.BatchTraced(sink, ops)
	if err != nil {
		s.mu.Lock()
		s.replay[dom] += len(ops)
		s.mu.Unlock()
	}
	return res, err
}

// waitQueued polls until at least parked merged batches sit at the spy's gate
// and the server has read n requests of kind. The requests not in a parked
// batch are queued behind one, so they leave the gate merged: a blocked
// first batch is what makes merging deterministic.
func waitQueued(t *testing.T, spy *laneSpy, reg *obs.Registry, kind string, parked int, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		spy.mu.Lock()
		p := spy.parked
		spy.mu.Unlock()
		read := reg.Snapshot().Counter(obs.Name("server.requests", "kind", kind))
		if p >= parked && read >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batches parked and %d %s requests read, want %d and %d", p, read, kind, parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// readAll collects the frames a raw connection receives until want of them
// arrived (or, for want < 0, until the server closes the connection), by id.
func readAll(t *testing.T, nc net.Conn, want int) map[uint64]wire.Msg {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(nc)
	got := map[uint64]wire.Msg{}
	for len(got) != want {
		m, err := wire.ReadMsg(br)
		if err != nil {
			if want < 0 && errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("raw read after %d of %d frames: %v", len(got), want, err)
		}
		got[m.ID] = m
	}
	return got
}

// TestLanesMergeWithinOneDomain: many connections' single-key requests over
// keys of both Systems merge — but only with requests of the same commit
// domain, so no merged batch ever runs the cluster's cross-System protocol.
func TestLanesMergeWithinOneDomain(t *testing.T) {
	cdb := newClusterDB(t)
	spy := newLaneSpy(cdb)
	spy.gate = make(chan struct{})
	reg := obs.NewRegistry()
	srv := server.New(spy, server.WithMetrics(reg))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	openGate := sync.OnceFunc(func() { close(spy.gate) })
	defer openGate()
	cl, err := client.Dial(addr.String(), client.WithConns(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				// Eight keys a worker, nobody else's: every read has one
				// right answer.
				k := []byte(fmt.Sprintf("w%d-%d", w, i%8))
				v := []byte(fmt.Sprintf("v%d", i))
				if err := cl.Put(k, v); err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
				if got, err := cl.Get(k); err != nil || string(got) != string(v) {
					t.Errorf("get %s = %q, %v; want %q", k, got, err, v)
					return
				}
				if i%3 != 0 {
					continue
				}
				if err := cl.Delete(k); err != nil {
					t.Errorf("delete %s: %v", k, err)
					return
				}
				if _, err := cl.Get(k); !errors.Is(err, kv.ErrNotFound) {
					t.Errorf("get %s after delete: %v, want ErrNotFound", k, err)
					return
				}
			}
		}()
	}
	// The first batch parks; every worker's first Put queues behind it.
	waitQueued(t, spy, reg, "put", 1, 16)
	openGate()
	wg.Wait()

	spy.mu.Lock()
	defer spy.mu.Unlock()
	if spy.mixed != 0 {
		t.Errorf("%d merged batches held keys of more than one domain", spy.mixed)
	}
	if spy.batches[0] == 0 || spy.batches[1] == 0 {
		t.Errorf("batches by domain %v: the keys should load both lanes", spy.batches)
	}
	if spy.merged == 0 {
		t.Errorf("no batch merged two ops: %v batches", spy.batches)
	}
	if c := cdb.Metrics().Counters; c["cluster.cross_txns"] != 0 || c["cluster.local_txns"] == 0 {
		t.Errorf("cluster ran %d cross-System and %d local transactions; single-key requests need none of the first",
			c["cluster.cross_txns"], c["cluster.local_txns"])
	}
}

// TestLanePipelinedPutThenGet: requests on one key share a lane and execute
// in arrival order, whichever System owns the key — a connection that
// pipelines 64 Puts of a key and then a Get, reading nothing in between, is
// answered with the last value.
func TestLanePipelinedPutThenGet(t *testing.T) {
	db := newClusterDB(t)
	srv := server.New(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	const puts = 64
	var frames []byte
	id := uint64(0)
	getID := map[int]uint64{}
	for dom := 0; dom < db.Domains(); dom++ {
		k := keysOn(db, dom, 1, "pipe")[0]
		for i := 0; i < puts; i++ {
			id++
			frames, err = wire.Encode(frames, wire.Msg{ID: id, Kind: wire.KindPut,
				Key: k, Value: []byte(strconv.Itoa(i))})
			if err != nil {
				t.Fatal(err)
			}
		}
		id++
		getID[dom] = id
		if frames, err = wire.Encode(frames, wire.Msg{ID: id, Kind: wire.KindGet, Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(t, raw, frames)

	got := readAll(t, raw, int(id))
	for dom, gid := range getID {
		if m := got[gid]; m.Kind != wire.KindValue || string(m.Value) != strconv.Itoa(puts-1) {
			t.Errorf("domain %d: pipelined Get answered %v %q, want the last Put's %d", dom, m.Kind, m.Value, puts-1)
		}
	}
}

// TestCloseDrainsEveryLane: Close answers the ops queued on every lane —
// behind a batch that is still executing — before it returns.
func TestCloseDrainsEveryLane(t *testing.T) {
	reg := obs.NewRegistry()
	spy := newLaneSpy(newClusterDB(t))
	spy.gate = make(chan struct{})
	srv := server.New(spy, server.WithMetrics(reg))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Deferred after Close, so run before it: a failed test must not leave
	// Close waiting on parked lanes.
	openGate := sync.OnceFunc(func() { close(spy.gate) })
	defer openGate()
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// More than one batch (32 ops) a lane, so each has ops still queued
	// when its first batch parks at the gate.
	const perLane = 40
	var frames []byte
	id := uint64(0)
	for dom := 0; dom < spy.Domains(); dom++ {
		for _, k := range keysOn(spy, dom, perLane, "drain") {
			id++
			if frames, err = wire.Encode(frames, wire.Msg{ID: id, Kind: wire.KindPut, Key: k, Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustWrite(t, raw, frames)
	// Every op is in a lane, every lane is mid-batch.
	waitQueued(t, spy, reg, "put", spy.Domains(), id)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while every lane still held unanswered ops")
	case <-time.After(20 * time.Millisecond):
	}
	openGate()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the lanes were released")
	}

	got := readAll(t, raw, -1)
	for i := uint64(1); i <= id; i++ {
		if m, ok := got[i]; !ok || m.Kind != wire.KindOK {
			t.Fatalf("op %d of %d: answered %v (present %v) by the time Close returned", i, id, m.Kind, ok)
		}
	}
}

// TestLeasedPutRidesTheBatcher: a Put carrying a lease is one more batched
// op. A lone one is a batch of its own, so server.batch_fill counts it.
// Merged on one lane with an unleased Put, a Put on a revoked lease fails
// the merged transaction; the lane's fallback then fails it alone with
// ErrLeaseNotFound, and its neighbour commits.
func TestLeasedPutRidesTheBatcher(t *testing.T) {
	for _, be := range []struct {
		name string
		open func(t *testing.T) kv.Served
	}{
		{"Local", func(t *testing.T) kv.Served { return newLocalDB(t, nil) }},
		{"Cluster2", func(t *testing.T) kv.Served { return newClusterDB(t) }},
	} {
		t.Run(be.name, func(t *testing.T) {
			rig := func(gate chan struct{}) (*laneSpy, *obs.Registry, *client.Client) {
				spy := newLaneSpy(be.open(t))
				spy.gate = gate
				reg := obs.NewRegistry()
				srv := server.New(spy, server.WithMetrics(reg))
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				cl, err := client.Dial(addr.String(), client.WithConns(2))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				return spy, reg, cl
			}

			t.Run("Lone", func(t *testing.T) {
				spy, reg, cl := rig(nil)
				id, err := cl.Grant(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Put(keysOn(spy, 0, 1, "leased")[0], []byte("v"), kv.WithLease(id)); err != nil {
					t.Fatal(err)
				}
				h := reg.Snapshot().Histograms["server.batch_fill"]
				if h.Count != 1 || h.Sum != 1 {
					t.Fatalf("a lone leased Put made %d batches of %d ops, want 1 of 1", h.Count, h.Sum)
				}
			})

			t.Run("RevokedBesideUnleased", func(t *testing.T) {
				gate := make(chan struct{})
				spy, reg, cl := rig(gate)
				openGate := sync.OnceFunc(func() { close(gate) })
				defer openGate()
				dead, err := cl.Grant(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Revoke(dead); err != nil {
					t.Fatal(err)
				}
				keys := keysOn(spy, 0, 3, "k")
				var wg sync.WaitGroup
				var blockErr, leasedErr, plainErr error
				put := func(errp *error, key []byte, opts ...kv.PutOption) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						*errp = cl.Put(key, []byte("v"), opts...)
					}()
				}
				// The blocker parks at the gate; the two Puts queue behind
				// it on the same lane and leave the gate as one batch.
				put(&blockErr, keys[0])
				waitQueued(t, spy, reg, "put", 1, 1)
				put(&leasedErr, keys[1], kv.WithLease(dead))
				put(&plainErr, keys[2])
				waitQueued(t, spy, reg, "put", 1, 3)
				openGate()
				wg.Wait()

				if blockErr != nil || plainErr != nil {
					t.Fatalf("unleased Puts: blocker %v, neighbour %v; want both committed", blockErr, plainErr)
				}
				if !errors.Is(leasedErr, kv.ErrLeaseNotFound) {
					t.Fatalf("Put on a revoked lease: %v, want ErrLeaseNotFound", leasedErr)
				}
				if _, err := cl.Get(keys[1]); !errors.Is(err, kv.ErrNotFound) {
					t.Fatalf("the refused leased Put left %s readable: %v", keys[1], err)
				}
				if _, err := cl.Get(keys[2]); err != nil {
					t.Fatalf("the neighbour's key %s: %v", keys[2], err)
				}
				spy.mu.Lock()
				defer spy.mu.Unlock()
				if spy.merged == 0 || spy.singles[0] != 2 {
					t.Fatalf("%d ops merged, %d re-run alone; want the two Puts merged, then both re-run alone", spy.merged, spy.singles[0])
				}
			})
		})
	}
}
