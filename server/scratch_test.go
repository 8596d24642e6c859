package server

import (
	"bytes"
	"testing"

	"rhtm"
	"rhtm/client"
	"rhtm/internal/scratch"
	"rhtm/kv"
	"rhtm/store"
)

// TestWriteBufScratch: a connection whose writer sent one response larger
// than scratch.Bound — a Get of a 192 KiB value — keeps at most
// scratch.Bound of encode buffer, and keeps a small frame's buffer for
// reuse.
func TestWriteBufScratch(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 19))
	srv := New(kv.NewLocal(rhtm.NewTL2(s), store.New(s, store.Options{ArenaWords: 1 << 18})))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(addr.String(), client.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{7}, 192<<10)
	if err := cl.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	var c *conn
	for c = range srv.conns {
	}
	srv.mu.Unlock()
	if v, err := cl.Get([]byte("big")); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("Get(big) = %d bytes, %v; want the %d-byte value back", len(v), err, len(big))
	}
	if err := cl.Put([]byte("small"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close() // returns once every connection's writer has exited
	if n := cap(c.wbuf); n == 0 || n > scratch.Bound {
		t.Fatalf("after a %d-byte response the writer keeps a %d-byte encode buffer, want one within (0, %d]", len(big), n, scratch.Bound)
	}
}
