package scratch

import "testing"

func TestScratchRule(t *testing.T) {
	words := make([]uint64, 10, Bound/8) // exactly Bound bytes
	if got := Reset(words); len(got) != 0 || cap(got) != Bound/8 {
		t.Fatalf("Reset of a %d-byte array: len %d cap %d, want it kept empty", Bound, len(got), cap(got))
	}
	if got := Reset(make([]uint64, 1, Bound/8+1)); got != nil {
		t.Fatalf("Reset of a %d-byte array kept cap %d, want nil", Bound+8, cap(got))
	}
	type pair struct{ a, b uint64 }
	if Over(make([]pair, 0, Bound/16)) || !Over(make([]pair, 0, Bound/16+1)) {
		t.Fatal("Over measures elements, not bytes")
	}
	if Over([]byte(nil)) || Reset([]byte(nil)) != nil {
		t.Fatal("a nil buffer is within the bound and stays nil")
	}
	refs := [][]byte{[]byte("key"), []byte("value")}
	if got := Release(refs); len(got) != 0 || refs[0] != nil || refs[1] != nil {
		t.Fatalf("Release left len %d, entries %q; want it emptied and zeroed", len(got), refs)
	}
}

func TestScratchResetAllocs(t *testing.T) {
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = Reset(append(buf, "frame"...)) }); n != 0 {
		t.Fatalf("Reset allocates %.1f per call, want 0", n)
	}
}
