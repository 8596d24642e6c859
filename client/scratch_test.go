package client_test

import (
	"bytes"
	"testing"

	"rhtm"
	"rhtm/client"
	"rhtm/internal/scratch"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/store"
)

// bigValue is three times scratch.Bound and within the store's largest
// block (32,768 words).
const bigValue = 192 << 10

// TestEncodeBufScratch: a connection that sent one bigValue Put keeps at
// most scratch.Bound of encode buffer, and keeps a small frame's buffer
// for reuse.
func TestEncodeBufScratch(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 19))
	db := kv.NewLocal(rhtm.NewTL2(s), store.New(s, store.Options{ArenaWords: 1 << 18}))
	cl := startRig(t, db, obs.NewRegistry(), "TL2", 1)
	if err := cl.Put([]byte("small"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if caps := client.EncodeBufCaps(cl); caps[0] == 0 {
		t.Fatal("a small Put's encode buffer was dropped, want it kept for reuse")
	}
	big := bytes.Repeat([]byte{7}, bigValue)
	if err := cl.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if caps := client.EncodeBufCaps(cl); caps[0] > scratch.Bound {
		t.Fatalf("after a %d-byte Put the connection keeps a %d-byte encode buffer, want at most %d", bigValue, caps[0], scratch.Bound)
	}
	if v, err := cl.Get([]byte("big")); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("Get(big) = %d bytes, %v; want the %d-byte value back", len(v), err, bigValue)
	}
}
