package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rhtm"
	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
	"rhtm/server/wire"
	"rhtm/store"
)

func newLocalDB(t *testing.T, reg *obs.Registry) *kv.Local {
	t.Helper()
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13})
	return kv.NewLocal(rhtm.NewTL2(s), sh, kv.WithMetrics(reg))
}

// waitGoroutines polls until the process goroutine count drops back to at
// most limit, failing after the deadline. Polling replaces a leak-checker
// dependency: the count is noisy (runtime helpers come and go) but a real
// session leak holds goroutines forever and can never converge.
func waitGoroutines(t *testing.T, limit int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still alive (limit %d):\n%s",
				n, limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerDisconnectMidPipeline slams connections shut while requests,
// transactions, and watch streams are in flight, and asserts the server
// sheds every per-connection goroutine — no leaked sessions, no stuck
// batch windows — while staying healthy for the next client.
func TestServerDisconnectMidPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(newLocalDB(t, reg), server.WithMetrics(reg))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		cl, err := client.Dial(addr.String(), client.WithConns(2))
		if err != nil {
			t.Fatalf("round %d: dial: %v", round, err)
		}
		if _, err := cl.Watch(context.Background(), []byte("w-"), 0); err != nil {
			t.Fatalf("round %d: watch: %v", round, err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					k := []byte(fmt.Sprintf("k-%d-%d", w, i%16))
					if err := cl.Put(k, k); err != nil {
						return // connection cut mid-pipeline: expected
					}
					if _, err := cl.Get(k); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(20 * time.Millisecond) // let the pipeline fill
		cl.Close()                        // abrupt: in-flight requests die
		wg.Wait()
	}
	// Every session's reader, writer, handlers, and watch streams must
	// unwind; the +4 slack absorbs runtime noise, not leaks (a leaked
	// session costs at least 2 goroutines per round = 10 here).
	waitGoroutines(t, baseline+4, 5*time.Second)

	cl, err := client.Dial(addr.String())
	if err != nil {
		t.Fatalf("post-disconnect dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Put([]byte("alive"), []byte("yes")); err != nil {
		t.Fatalf("server unhealthy after disconnects: %v", err)
	}
}

// TestServerShutdownDrains closes the server under load: every client
// call must resolve — success or a clean error, never a hang — watch
// channels must close (the drain sends WatchEnd), Close must return, and
// later calls must fail fast.
func TestServerShutdownDrains(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(newLocalDB(t, reg), server.WithMetrics(reg))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr.String(), client.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	wch, err := cl.Watch(context.Background(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("d-%d-%d", w, i%8))
				if err := cl.Put(k, k); err != nil {
					return // the shutdown cut us off: a clean error, done
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain within 10s")
	}
	close(stop)
	wg.Wait() // every worker resolved: no call may hang across shutdown

	// The drain ends watch streams with WatchEnd, so the channel closes
	// without the watcher cancelling anything.
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-wch:
			open = ok
		case <-deadline:
			t.Fatal("watch channel still open after server shutdown")
		}
	}

	if err := cl.Put([]byte("late"), []byte("x")); err == nil {
		t.Fatal("Put succeeded against a closed server")
	}
}

// mustWrite sends pre-encoded frames on a raw test connection.
func mustWrite(t *testing.T, nc net.Conn, frames []byte) {
	t.Helper()
	if _, err := nc.Write(frames); err != nil {
		t.Fatalf("raw write: %v", err)
	}
}

// readFor reads frames off a raw connection until one carries id,
// skipping unrelated frames (watch events, other responses).
func readFor(t *testing.T, nc net.Conn, br *bufio.Reader, id uint64) wire.Msg {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := wire.ReadMsg(br)
		if err != nil {
			t.Fatalf("raw read waiting for id %d: %v", id, err)
		}
		if m.ID == id {
			return m
		}
	}
}

// TestStalledReaderDoesNotBlockBatcher pins the batcher's non-blocking
// response invariant: a client that pipelines single-key requests and
// never reads a byte back fills its connection's outbound queue and TCP
// window, and the shared merge loop must keep serving every other
// connection regardless — its responses to the stalled connection go
// through the overflow path, and the write timeout eventually declares
// that connection dead instead of wedging Get/Put/Delete fleet-wide.
func TestStalledReaderDoesNotBlockBatcher(t *testing.T) {
	// The write timeout is deliberately far beyond the test window: the
	// healthy connection must stay served by the overflow path alone, not
	// by the deadline killing the stalled peer.
	reg := obs.NewRegistry()
	srv := server.New(newLocalDB(t, reg), server.WithMetrics(reg))
	server.SetWriteTimeout(srv, time.Minute)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A fat value makes each pipelined Get response ~16KiB, so a few
	// hundred responses overrun the kernel's socket buffering and force the
	// stalled connection's outbound queue to its bound.
	seed, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 16<<10)
	if err := seed.Put([]byte("stall"), big); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The flood is sized from what the invariant needs, not larger: the
	// healthy connection's ops below queue FIFO behind it, and under the
	// race detector every Get copies its 16KiB word by word out of simulated
	// memory. Measured on loopback, the writer gets 242 responses (3.97 MB)
	// into the socket buffers before it blocks; the outbound queue then
	// holds 256 more and the writer one. From the ~500th response on, the
	// batcher can only answer through the overflow path.
	const flood = 640
	var frames []byte
	for i := 0; i < flood; i++ {
		frames, err = wire.Encode(frames, wire.Msg{
			ID: uint64(i + 1), Kind: wire.KindGet, Key: []byte("stall")})
		if err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(t, raw, frames) // pipelined flood; this side never reads

	// A healthy connection's batched ops must keep completing while the
	// stalled peer's queue is full.
	cl, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if err := cl.Put([]byte("live"), []byte("v")); err != nil {
				done <- err
				return
			}
			if _, err := cl.Get([]byte("live")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy connection failed behind a stalled peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batcher wedged behind a connection that stopped reading")
	}
}

// TestWatchIdleRejectsActiveWatch pins the deadlock fix on the inline
// WatchIdle handler: issued while a watch is still active (no cancel
// requested), it must answer an error — blocking the reader there could
// never resolve, since the stream only ends through teardown, which needs
// that same reader to exit. After the cancel, idle succeeds.
func TestWatchIdleRejectsActiveWatch(t *testing.T) {
	srv := server.New(newLocalDB(t, obs.NewRegistry()))
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
	br := bufio.NewReader(raw)
	enc := func(m wire.Msg) []byte {
		b, err := wire.Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	mustWrite(t, raw, enc(wire.Msg{ID: 1, Kind: wire.KindWatch, Key: []byte("wi-")}))
	if m := readFor(t, raw, br, 1); m.Kind != wire.KindOK {
		t.Fatalf("watch subscribe answered %v, want OK", m.Kind)
	}

	mustWrite(t, raw, enc(wire.Msg{ID: 2, Kind: wire.KindWatchIdle}))
	if m := readFor(t, raw, br, 2); m.Kind != wire.KindErr {
		t.Fatalf("watch idle over an active watch answered %v, want Err", m.Kind)
	}

	// Cancel (the target watch id rides in Rev), then idle must succeed:
	// every registered stream is now guaranteed to end on its own.
	mustWrite(t, raw, enc(wire.Msg{ID: 3, Kind: wire.KindWatchCancel, Rev: 1}))
	if m := readFor(t, raw, br, 3); m.Kind != wire.KindOK {
		t.Fatalf("watch cancel answered %v, want OK", m.Kind)
	}
	mustWrite(t, raw, enc(wire.Msg{ID: 4, Kind: wire.KindWatchIdle}))
	if m := readFor(t, raw, br, 4); m.Kind != wire.KindOK {
		t.Fatalf("watch idle after cancel answered %v (%s), want OK", m.Kind, m.Text)
	}
}

// TestBatcherMergesAcrossConnections drives concurrent single-key requests
// from many connections and asserts the cross-connection batcher actually
// merged them: the server.batch_fill histogram must record more ops than
// batches. The first batch parks at a gate, so the requests behind it merge.
func TestBatcherMergesAcrossConnections(t *testing.T) {
	reg := obs.NewRegistry()
	db := newLocalDB(t, reg)
	if err := db.Put([]byte("shared"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	spy := newLaneSpy(db)
	spy.gate = make(chan struct{})
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
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := cl.Get([]byte("shared")); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}()
	}
	waitQueued(t, spy, reg, "get", 1, 32)
	openGate()
	wg.Wait()

	snap := reg.Snapshot()
	h, ok := snap.Histograms["server.batch_fill"]
	if !ok || h.Count == 0 {
		t.Fatalf("no batches recorded: %+v", snap.Histograms)
	}
	if h.Sum <= h.Count {
		t.Fatalf("batcher never merged: %d ops across %d batches", h.Sum, h.Count)
	}
}

// TestBatcherHardErrorFallback pins the degradation contract: when one op
// poisons the merged transaction (an oversized value fails the whole
// kv.Batch), the batcher re-executes the batch individually, so innocent
// neighbors still succeed and only the culprit fails. The fallback is the
// poisoned lane's alone: on a two-domain backend, the other lane's ops never
// leave their merged batch.
func TestBatcherHardErrorFallback(t *testing.T) {
	for _, be := range []struct {
		name string
		open func(t *testing.T) kv.Served
	}{
		{"Local", func(t *testing.T) kv.Served { return newLocalDB(t, nil) }},
		{"Cluster2", func(t *testing.T) kv.Served { return newClusterDB(t) }},
	} {
		t.Run(be.name, func(t *testing.T) {
			spy := newLaneSpy(be.open(t))
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
			cl, err := client.Dial(addr.String(), client.WithConns(4))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// Park a blocker's batch on every lane, so the ops below queue
			// behind it and leave the gate as one merged batch a lane.
			var wg sync.WaitGroup
			for dom := 0; dom < spy.Domains(); dom++ {
				blocker := keysOn(spy, dom, 1, "blocker")[0]
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := cl.Put(blocker, []byte("v")); err != nil {
						t.Errorf("blocker Put %s: %v", blocker, err)
					}
				}()
			}
			waitQueued(t, spy, reg, "put", spy.Domains(), uint64(spy.Domains()))

			// The poison goes to domain 0; four innocents ride on every
			// domain.
			poison := keysOn(spy, 0, 1, "poison")[0]
			var innocents [][]byte
			for dom := 0; dom < spy.Domains(); dom++ {
				innocents = append(innocents, keysOn(spy, dom, 4, "ok")...)
			}
			huge := make([]byte, 1<<19) // beyond the largest arena size class
			errs := make([]error, len(innocents))
			var hugeErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				hugeErr = cl.Put(poison, huge)
			}()
			for i := range innocents {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = cl.Put(innocents[i], []byte("v"))
				}()
			}
			waitQueued(t, spy, reg, "put", spy.Domains(), uint64(spy.Domains()+1+len(innocents)))
			openGate()
			wg.Wait()

			if !errors.Is(hugeErr, kv.ErrTooLarge) {
				t.Fatalf("oversized Put: %v, want ErrTooLarge", hugeErr)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("innocent Put %s failed alongside the poisoned op: %v", innocents[i], err)
				}
			}
			for _, k := range innocents {
				if _, err := cl.Get(k); err != nil {
					t.Fatalf("%s unreadable: %v", k, err)
				}
			}
			spy.mu.Lock()
			defer spy.mu.Unlock()
			if spy.singles[0] == 0 {
				t.Fatalf("the poisoned lane never fell back to individual execution")
			}
			for dom := 1; dom < spy.Domains(); dom++ {
				if spy.singles[dom] != 0 {
					t.Fatalf("domain %d: %d ops executed individually; its lane's batch held no poison", dom, spy.singles[dom])
				}
			}
		})
	}
}
