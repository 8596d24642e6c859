package kv

import (
	"bytes"
	"errors"
	"testing"

	"rhtm"
	"rhtm/store"
)

// TestLeaseRecordLayout pins a lease record's value, the third binary
// layout beside wire frames and WAL records: u64 deadline, u64 ttl, u64
// key count, then per key a u32 length and the key bytes, little-endian.
// The records are made and read by the lease operations themselves, so the
// test holds whatever codes them: the exact bytes for 0, 1 and 3 attached
// keys (one 300 bytes long), a decode-and-re-encode round trip through
// KeepAlive, and the rejection of a truncated header, a key length past
// the end, and a key count the bytes cannot hold.
func TestLeaseRecordLayout(t *testing.T) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	clk := NewManualClock()
	db := NewLocal(rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100}),
		store.New(s, store.Options{ArenaWords: 1 << 14}), WithClock(clk))
	raw := func(id LeaseID) []byte {
		t.Helper()
		var b []byte
		if err := db.Update(func(tx Txn) error {
			v, err := tx.(coordTxn).getRaw(leaseKey(id))
			b = bytes.Clone(v)
			return err
		}); err != nil {
			t.Fatalf("lease %d: %v", id, err)
		}
		return b
	}
	long := bytes.Repeat([]byte{0xA5}, 300)
	grant := func(ttl uint64, keys ...[]byte) LeaseID {
		t.Helper()
		id, err := db.Grant(ttl)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := db.Put(k, []byte("v"), WithLease(id)); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}

	none := grant(5)
	one := grant(7, []byte("a"))
	three := grant(9, []byte("k1"), long, []byte("k3"))
	// The clock reads 1, so each deadline is 1 + ttl.
	cases := []struct {
		name string
		id   LeaseID
		want []byte
	}{
		{"no keys", none, []byte{
			0x06, 0, 0, 0, 0, 0, 0, 0, // deadline 6
			0x05, 0, 0, 0, 0, 0, 0, 0, // ttl 5
			0x00, 0, 0, 0, 0, 0, 0, 0, // 0 keys
		}},
		{"one key", one, []byte{
			0x08, 0, 0, 0, 0, 0, 0, 0, // deadline 8
			0x07, 0, 0, 0, 0, 0, 0, 0, // ttl 7
			0x01, 0, 0, 0, 0, 0, 0, 0, // 1 key
			0x01, 0, 0, 0, 'a',
		}},
		{"three keys", three, append(append([]byte{
			0x0a, 0, 0, 0, 0, 0, 0, 0, // deadline 10
			0x09, 0, 0, 0, 0, 0, 0, 0, // ttl 9
			0x03, 0, 0, 0, 0, 0, 0, 0, // 3 keys
			0x02, 0, 0, 0, 'k', '1',
			0x2c, 0x01, 0, 0, // 300
		}, long...), 0x02, 0, 0, 0, 'k', '3')},
	}
	for _, c := range cases {
		if got := raw(c.id); !bytes.Equal(got, c.want) {
			t.Errorf("%s: record\n % x\nwant\n % x", c.name, got, c.want)
		}
	}

	// KeepAlive decodes the record and encodes it back with only the
	// deadline moved: now 11 + ttl 9.
	clk.Advance(10)
	if err := db.KeepAlive(three); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{0x14}, cases[2].want[1:]...)
	if got := raw(three); !bytes.Equal(got, want) {
		t.Errorf("after KeepAlive: record\n % x\nwant\n % x", got, want)
	}
	// Revoke reads the key list back whole: all three keys go.
	if err := db.Revoke(three); err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{[]byte("k1"), long, []byte("k3")} {
		if _, err := db.Get(k); !errors.Is(err, ErrNotFound) {
			t.Errorf("key %.8q after Revoke: err = %v, want ErrNotFound", k, err)
		}
	}

	// A damaged record fails the operation that reads it.
	head := func(count byte) []byte {
		return []byte{
			0x30, 0, 0, 0, 0, 0, 0, 0,
			0x05, 0, 0, 0, 0, 0, 0, 0,
			count, 0, 0, 0, 0, 0, 0, 0,
		}
	}
	bad := []struct {
		name string
		rec  []byte
	}{
		{"truncated header", head(0)[:23]},
		{"key length past the end", append(head(1), 0x0a, 0, 0, 0, 'a', 'b', 'c')},
		{"key count past the bytes", append(head(3), 0x01, 0, 0, 0, 'a')},
		{"huge key count", append(head(0)[:16], 0, 0, 0, 0, 0, 0x01, 0, 0)},
	}
	for _, c := range bad {
		if err := db.Update(func(tx Txn) error {
			return tx.(coordTxn).putRaw(leaseKey(none), c.rec, 0)
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.KeepAlive(none); err == nil || errors.Is(err, ErrLeaseNotFound) {
			t.Errorf("%s: KeepAlive err = %v, want a decode failure", c.name, err)
		}
	}
}
