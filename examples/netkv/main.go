// netkv serves a kv.DB over loopback TCP and drives it through the
// client package — the network front end of DESIGN.md §11 in one program.
// Pipelined workers hammer independent Puts and Gets through a pooled
// connection set (so the server's cross-connection batcher merges ops from
// different connections into shared transactions), a transfer loop commits
// Update closures across the wire, and a watch stream subscribed over TCP
// observes every transfer commit as server-push Event frames. The client
// implements kv.DB, so everything here is the same code an in-process
// caller would write; only the Dial line knows a network exists.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sync"

	"rhtm"
	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
	"rhtm/store"
)

const (
	workers = 8
	opsEach = 200
	records = 128
	conns   = 4
)

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

func key(i int) []byte { return []byte(fmt.Sprintf("item-%04d", i%records)) }

// run executes the scenario and returns a human-readable summary; the
// smoke test drives it directly.
func run() (string, error) {
	// The backend: a real engine and sharded store behind a Local DB. The
	// server fronts it without owning it, and both report through one
	// registry, so the DB's Metrics snapshot carries the server's
	// instruments next to its own.
	reg := obs.NewRegistry()
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 18))
	db := kv.NewLocal(rhtm.NewTL2(s), store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 14}), kv.WithMetrics(reg))
	srv := server.New(db, server.WithMetrics(reg), server.WithEngineName("tl2"))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer srv.Close()

	cl, err := client.Dial(addr.String(), client.WithConns(conns))
	if err != nil {
		return "", err
	}
	defer cl.Close()

	// A watch over the wire: subscribe to the transfer ledger's prefix and
	// count the commits the server pushes back.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := cl.Watch(ctx, []byte("ledger:"), 0)
	if err != nil {
		return "", err
	}
	var watched, lost int
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ev := range events {
			if ev.Kind == kv.EventLost {
				lost++
				continue
			}
			watched++
		}
	}()

	// Populate through one Batch frame, then let pipelined workers loose:
	// each alternates independent Puts and Gets, which the server is free
	// to complete out of order and merge across connections.
	ops := make([]kv.Op, records)
	for i := range ops {
		ops[i] = kv.Op{Kind: kv.OpPut, Key: key(i), Value: []byte{0}}
	}
	if _, err := cl.Batch(ops); err != nil {
		return "", err
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := key(w*opsEach + i)
				if i%2 == 0 {
					if err := cl.Put(k, bytes.Repeat([]byte{byte(w)}, 8)); err != nil {
						errs <- fmt.Errorf("worker %d put: %w", w, err)
						return
					}
				} else if _, err := cl.Get(k); err != nil && err != kv.ErrNotFound {
					errs <- fmt.Errorf("worker %d get: %w", w, err)
					return
				}
			}
		}(w)
	}

	// The transfer loop: Update closures commit atomically across the wire
	// (the client ships the closure's read revisions and buffered writes
	// as one Txn frame; the server validates and applies transactionally).
	const transfers = 40
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < transfers; i++ {
			err := cl.Update(func(tx kv.Txn) error {
				cur, err := tx.Get([]byte("ledger:total"))
				if err != nil && err != kv.ErrNotFound {
					return err
				}
				return tx.Put([]byte("ledger:total"), append(cur[:len(cur):len(cur)], byte(i)))
			})
			if err != nil {
				errs <- fmt.Errorf("transfer %d: %w", i, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		return "", err
	}

	// Drain the watch: cancel, wait for the server's WatchEnd to close the
	// channel, and check every transfer commit was observed (the ledger is
	// one key written serially, well under the queue bound — no EventLost).
	cancel()
	<-watchDone
	if watched+lost < transfers {
		return "", fmt.Errorf("watch saw %d events + %d lost, want >= %d", watched, lost, transfers)
	}

	// The final ledger value must hold exactly one byte per transfer —
	// the closures were serialized by conflict detection, not luck.
	total, err := cl.Get([]byte("ledger:total"))
	if err != nil {
		return "", err
	}
	if len(total) != transfers {
		return "", fmt.Errorf("ledger holds %d entries, want %d: lost updates", len(total), transfers)
	}

	// The server's own instruments tell the batching story: batch_fill's
	// sum/count is the mean ops merged per cross-connection transaction.
	snap := db.Metrics()
	fill := snap.Histograms["server.batch_fill"]
	if fill.Count == 0 {
		return "", fmt.Errorf("batcher never engaged")
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "netkv ok: %d workers x %d ops over %d conns, %d transfers, %d watch events (%d lost)\n",
		workers, opsEach, conns, transfers, watched, lost)
	fmt.Fprintf(&b, "server: %d batches, mean fill %.2f ops, %d bytes in / %d bytes out\n",
		fill.Count, float64(fill.Sum)/float64(fill.Count),
		snap.Counters["server.bytes_in"], snap.Counters["server.bytes_out"])
	return b.String(), nil
}
