package wal

import (
	"fmt"
	"testing"

	"rhtm/internal/scratch"
)

// bigCheckpoint returns a checkpoint body whose encoded unit is several
// times scratch.Bound.
func bigCheckpoint() []Op {
	ops := make([]Op, 2000)
	for i := range ops {
		key := []byte(fmt.Sprintf("user%08d", i))
		ops[i] = Op{Kind: OpPut, Key: key, Value: make([]byte, 64), Rev: uint64(i + 1)}
	}
	return ops
}

// TestStatsBytesMatchDevice: Stats().Bytes counts exactly the bytes the
// device grew by, across commits and a checkpoint unit larger than
// scratch.Bound — so the encode buffer is counted before it is let go.
func TestStatsBytesMatchDevice(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	check := func(step string) {
		t.Helper()
		if got, want := w.Stats().Bytes, uint64(dev.Size()); got != want {
			t.Fatalf("after %s: Stats().Bytes = %d, device holds %d", step, got, want)
		}
	}
	commit := func(id uint64) {
		t.Helper()
		key := []byte(fmt.Sprintf("k%d", id))
		if err := w.Commit(id, 0, []Op{{Kind: OpPut, Key: key, Value: key}}); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 3; id++ {
		commit(id)
	}
	check("three commits")
	before := dev.Size()
	if err := w.Checkpoint(func() ([]Op, error) { return bigCheckpoint(), nil }); err != nil {
		t.Fatal(err)
	}
	if unit := dev.Size() - before; unit <= scratch.Bound {
		t.Fatalf("checkpoint unit is %d bytes, want more than %d", unit, scratch.Bound)
	}
	check("the checkpoint")
	for id := uint64(4); id <= 6; id++ {
		commit(id)
	}
	check("three more commits")
}

// TestWriterScratch: the encode buffer a checkpoint unit grew is let go
// when the append ends, and a small unit's buffer is kept for the next.
func TestWriterScratch(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	if err := w.Checkpoint(func() ([]Op, error) { return bigCheckpoint(), nil }); err != nil {
		t.Fatal(err)
	}
	if c := cap(w.buf); c > scratch.Bound {
		t.Fatalf("after a %d-byte checkpoint the writer keeps a %d-byte encode buffer, want at most %d", dev.Size(), c, scratch.Bound)
	}
	if err := w.Commit(1, 0, []Op{{Kind: OpPut, Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) == 0 {
		t.Fatal("a small commit's encode buffer was dropped, want it kept for reuse")
	}
}

// TestTailerScratch: a tailer that drained its buffer lets the bytes go —
// an empty reslice of the last chunk would pin the whole chunk until more
// log arrives.
func TestTailerScratch(t *testing.T) {
	dev := &MemDevice{}
	w := NewWriter(dev, 1, nil, Options{})
	if err := w.Checkpoint(func() ([]Op, error) { return bigCheckpoint(), nil }); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dev, 0, 1)
	if _, err := tl.Next(); err != nil {
		t.Fatal(err)
	}
	if c := cap(tl.buf); c != 0 {
		t.Fatalf("a drained tailer keeps a %d-byte buffer, want none", c)
	}
}
