package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rhtm"
	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
	"rhtm/server/wire"
	"rhtm/store"
	"rhtm/wal"
)

// TestRhtopSmoke is the dashboard's acceptance test: a real server with a
// WAL-backed DB and a replica-status hook, a traced client applying load,
// and two polls a beat apart. Every section the rig exercises must appear
// in the rendered frame, and the second frame's request counter must be
// strictly ahead of the first (the monotone source of the throughput
// figure).
func TestRhtopSmoke(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := rhtm.NewTL2(s)
	sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
	dev, err := wal.NewMemStorage().Device("wal")
	if err != nil {
		t.Fatal(err)
	}
	// One registry shared between the DB and the server, so AdminMetrics
	// snapshots carry the server.* taxonomy alongside the engine's.
	reg := obs.NewRegistry()
	db, err := kv.OpenLocal(eng, sh, dev, kv.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(db, server.WithMetrics(reg),
		server.WithReplicaStatus(func() []wire.ReplicaHealth {
			return []wire.ReplicaHealth{{Name: "replica-0", Stream: "wal"}}
		}))
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

	load := func(n int) {
		for i := 0; i < n; i++ {
			if err := cl.Put([]byte(fmt.Sprintf("top-%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := cl.Update(func(tx kv.Txn) error {
				return tx.Put([]byte("top-txn"), []byte{byte(i)})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	load(8)
	first, err := Poll(cl)
	if err != nil {
		t.Fatal(err)
	}
	load(8)
	second, err := Poll(cl)
	if err != nil {
		t.Fatal(err)
	}
	// The admin polls themselves count as requests, so strict monotonicity
	// holds even without the extra load; the load makes the frame's other
	// sections non-trivial.
	if second.Health.Requests <= first.Health.Requests {
		t.Fatalf("request counter not monotone across polls: %d then %d",
			first.Health.Requests, second.Health.Requests)
	}
	if second.When.Before(first.When) {
		t.Fatalf("sample stamps out of order")
	}

	var buf bytes.Buffer
	Render(&buf, addr.String(), second, &first)
	frame := buf.String()
	for _, want := range []string{
		"rhtop — " + addr.String(), // header with the polled address
		"requests ",
		"/s)", // the throughput figure from the two-poll delta
		"engine    commits",
		"abort ratio",
		"server    req p50/p99",
		"bytes in/out",
		"wal       syncs",
		"txns/sync",
		"replica   replica-0",
		"slowest sampled requests",
		"txn", // the traced Update kind with its stage breakdown
		"put",
		"engine ", // a typed stage inside a slowest-trace line
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}

	// A first frame (no previous sample) renders without a rate and
	// without panicking on the nil window.
	buf.Reset()
	Render(&buf, addr.String(), first, nil)
	if strings.Contains(buf.String(), "/s)") {
		t.Fatalf("rate rendered without a previous sample:\n%s", buf.String())
	}
}

// TestRenderPure pins the render function's determinism over fixed inputs
// — same samples, same frame — so the dashboard stays testable without a
// live server.
func TestRenderPure(t *testing.T) {
	base := time.Unix(1000, 0)
	prev := Sample{When: base, Health: wire.Health{Requests: 100}}
	cur := Sample{
		When: base.Add(2 * time.Second),
		Snap: obs.Snapshot{
			Counters: map[string]uint64{
				obs.Name("engine.commits", "path", "fast"): 90,
				obs.Name("engine.aborts", "path", "slow"):  10,
				"server.bytes_in":                          1000,
				"server.bytes_out":                         2000,
			},
		},
		Health: wire.Health{
			UptimeNS: uint64(5 * time.Second), Connections: 2, Requests: 300,
			Replicas: []wire.ReplicaHealth{
				{Name: "replica-0", Stream: "wal", AppliedLSN: 9, AppliedRev: 4, LagFrames: 1},
			},
		},
	}
	var a, b bytes.Buffer
	Render(&a, "x:1", cur, &prev)
	Render(&b, "x:1", cur, &prev)
	if a.String() != b.String() {
		t.Fatalf("render not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	for _, want := range []string{
		"requests 300 (100.0/s)", // (300-100)/2s
		"abort ratio 10.0%",
		"lag 1 frames",
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("frame missing %q:\n%s", want, a.String())
		}
	}
}
