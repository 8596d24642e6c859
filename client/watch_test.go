package client_test

import (
	"context"
	"testing"
	"time"

	"rhtm"
	"rhtm/client"
	"rhtm/kv"
	"rhtm/server"
	"rhtm/store"
)

// TestWaitWatchIdleBesideAnotherClientsWatch: a client's WaitWatchIdle
// returns once its own watches have ended although another client still
// watches the same server, and that other client's stream keeps delivering.
// Once the other stream ends too, WaitWatchIdle waits for the DB's watch
// machinery as before.
func TestWaitWatchIdleBesideAnotherClientsWatch(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	db := kv.NewLocal(rhtm.NewTL2(s), store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 13}))
	srv := server.New(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func() *client.Client {
		cl, err := client.Dial(addr.String(), client.WithConns(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	a, b := dial(), dial()

	// Deferred, so it runs before the cleanups: a blocked idle on a must
	// not leave Close waiting on it.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	evB, err := b.Watch(ctxB, []byte("k"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	evA, err := a.Watch(ctxA, []byte("k"), 0)
	if err != nil {
		t.Fatal(err)
	}
	cancelA()
	for range evA {
	}

	idle := func(cl *client.Client, who string) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			cl.WaitWatchIdle()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: WaitWatchIdle still blocked after 5s", who)
		}
	}
	idle(a, "a, while b watches")

	if err := a.Put([]byte("k"), []byte("after-idle")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for delivered := false; !delivered; {
		select {
		case ev := <-evB:
			delivered = ev.Kind == kv.EventPut && string(ev.Value) == "after-idle"
		case <-deadline:
			t.Fatal("b's watch delivered no event for the Put after a's idle")
		}
	}

	cancelB()
	for range evB {
	}
	idle(b, "b, the last watcher")
}
