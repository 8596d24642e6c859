package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rhtm"
	"rhtm/client"
	"rhtm/cluster"
	"rhtm/internal/enginetest/dbtest"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/repl"
	"rhtm/server"
	"rhtm/store"
	"rhtm/wal"
)

// startRig serves db on an ephemeral port and dials a pooled client,
// wiring both into the test's cleanup in drain order (client first).
func startRig(t *testing.T, db kv.Served, reg *obs.Registry, engine string, conns int) *client.Client {
	t.Helper()
	srv := server.New(db, server.WithMetrics(reg), server.WithEngineName(engine))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("server start: %v", err)
	}
	cl, err := client.Dial(addr.String(), client.WithConns(conns))
	if err != nil {
		srv.Close()
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

// netLocalFactory is the client→server→Local rig: a sharded store-backed
// DB behind a real TCP server, the client standing in as the kv.DB under
// test. The server shares the DB's registry so server.* instruments ride
// in the same Metrics snapshots the battery asserts on.
func netLocalFactory(engineName string, shards, inject int) dbtest.DBFactory {
	return func(t *testing.T) (kv.DB, *kv.ManualClock, func() error) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		var eng rhtm.Engine
		switch engineName {
		case "RH1":
			eng = rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100, InjectAbortPercent: inject})
		case "TL2":
			eng = rhtm.NewTL2(s)
		default:
			t.Fatalf("unknown engine %q", engineName)
		}
		clock := kv.NewManualClock()
		reg := obs.NewRegistry()
		sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
		db := kv.NewLocal(eng, sh, kv.WithClock(clock), kv.WithMetrics(reg))
		cl := startRig(t, db, reg, engineName, 3)
		return cl, clock, sh.Validate
	}
}

// netClusterFactory is the client→server→ClusterDB rig: the same wire
// front end over the 2PC coordinator, with injected hardware aborts
// exercising the fallback paths under network-shaped load.
func netClusterFactory(engineName string, systems, inject int) dbtest.DBFactory {
	return func(t *testing.T) (kv.DB, *kv.ManualClock, func() error) {
		c, err := cluster.New(cluster.Config{
			Systems:    systems,
			ArenaWords: 1 << 13,
			NewEngine: func(s *rhtm.System) (rhtm.Engine, error) {
				switch engineName {
				case "RH1":
					return rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100, InjectAbortPercent: inject}), nil
				case "TL2":
					return rhtm.NewTL2(s), nil
				}
				return nil, errors.New("unknown engine " + engineName)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		clock := kv.NewManualClock()
		reg := obs.NewRegistry()
		db := kv.NewCluster(c, kv.WithClock(clock), kv.WithMetrics(reg))
		cl := startRig(t, db, reg, engineName, 3)
		return cl, clock, c.Validate
	}
}

// TestClientIsOneDomain: the wire client reports one commit domain even over
// a cluster — placement is the server's business.
func TestClientIsOneDomain(t *testing.T) {
	cl, _, _ := netClusterFactory("TL2", 2, 0)(t)
	if got := cl.Domains(); got != 1 {
		t.Fatalf("Domains() = %d, want 1", got)
	}
	for _, k := range []string{"", "a", "foobar"} {
		if got := cl.Domain([]byte(k)); got != 0 {
			t.Errorf("Domain(%q) = %d, want 0", k, got)
		}
	}
}

// TestFollowerReadsOverWire serves a WAL-shipping replica on its own port
// and routes the client's follower reads there with WithFollowerReads: the
// staleness contract (floor honored, rev never above the watermark) must
// survive the wire, including the ErrTooStale and absent-key shapes.
func TestFollowerReadsOverWire(t *testing.T) {
	newSys := func() (rhtm.Engine, kv.Storer) {
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
		return rhtm.NewTL2(s), store.New(s, store.Options{ArenaWords: 1 << 14})
	}
	eng, st := newSys()
	stg := wal.NewMemStorage()
	dev, err := stg.Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	primary, err := kv.OpenLocal(eng, st, dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := repl.NewLocalGroup(primary, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reng, rst := newSys()
	f, err := g.AddLocalReplica(reng, rst)
	if err != nil {
		t.Fatal(err)
	}

	// Primary and replica each get their own server; the client dials the
	// primary and learns the replica address for follower routing.
	psrv := server.New(primary)
	paddr, err := psrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	rsrv := server.New(f.DB())
	raddr, err := rsrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	cl, err := client.Dial(paddr.String(), client.WithConns(2),
		client.WithFollowerReads(raddr.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var floor kv.Revision
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("fk-%02d", i))
		if err := cl.Put(k, []byte(fmt.Sprintf("fv-%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, rev, err := cl.GetRev(k); err != nil {
			t.Fatal(err)
		} else if rev > floor {
			floor = rev
		}
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("fk-%02d", i))
		v, rev, wm, err := cl.ReadAt(k, floor)
		if err != nil {
			t.Fatalf("ReadAt(%s, %d): %v", k, floor, err)
		}
		if !bytes.Equal(v, []byte(fmt.Sprintf("fv-%d", i))) {
			t.Fatalf("ReadAt(%s): value %q", k, v)
		}
		if rev > wm {
			t.Fatalf("ReadAt(%s): rev %d above watermark %d", k, rev, wm)
		}
	}
	// Absence at a watermark is a fact, not a failure: wm still travels.
	if _, _, wm, err := cl.ReadAt([]byte("fk-missing"), 0); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("missing key: err = %v", err)
	} else if wm == 0 {
		t.Fatal("missing key: watermark lost on the absent path")
	}
	// An unreachable floor surfaces as the kv sentinel across the wire.
	if _, _, _, err := cl.ReadAt([]byte("fk-00"), 1<<40); !errors.Is(err, kv.ErrTooStale) {
		t.Fatalf("huge floor: err = %v, want kv.ErrTooStale", err)
	}

	// With no replica addresses the same calls fall back to the primary,
	// which serves its own follower-read surface at watermark = now.
	direct, err := client.Dial(paddr.String(), client.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if v, rev, wm, err := direct.ReadAt([]byte("fk-00"), floor); err != nil {
		t.Fatalf("primary fallback: %v", err)
	} else if !bytes.Equal(v, []byte("fv-0")) || rev > wm {
		t.Fatalf("primary fallback: v=%q rev=%d wm=%d", v, rev, wm)
	}
}

// TestNetDBConformance runs the full shared battery — oracle, race,
// transfer, batch, scan snapshot, CAS, leases, watches (including the
// coalescing overflow case), metrics, and tracing — with the network
// client as the kv.DB under test, against both backends. The wire is real
// TCP on loopback; nothing is mocked.
func TestNetDBConformance(t *testing.T) {
	dbtest.RunDB(t, "Net/Local/TL2", netLocalFactory("TL2", 4, 0))
	dbtest.RunDB(t, "Net/Local/RH1", netLocalFactory("RH1", 4, 10))
	dbtest.RunDB(t, "Net/Cluster2/RH1", netClusterFactory("RH1", 2, 20))
}
