package containers

import (
	"math/rand"

	"rhtm"
)

// RandomArray is the paper's Random Array benchmark structure (§3.5): a
// shared array whose transactions "simply access random array locations to
// read and write, without any special additional logic", giving direct
// control over transaction length and write ratio.
type RandomArray struct {
	sys  *rhtm.System
	base rhtm.Addr
	size uint64
}

// NewRandomArray allocates an array of size words.
func NewRandomArray(s *rhtm.System, size int) *RandomArray {
	if size <= 0 {
		panic("containers: RandomArray needs a positive size")
	}
	return &RandomArray{sys: s, base: s.MustAlloc(size), size: uint64(size)}
}

// Op performs one transaction body of the given length: length shared
// accesses at uniformly random indices, of which writePct percent are
// writes. It returns the XOR of the values read (so reads cannot be
// optimized away).
func (r *RandomArray) Op(tx rhtm.Tx, rng *rand.Rand, length, writePct int) uint64 {
	var acc uint64
	for i := 0; i < length; i++ {
		a := r.base + rhtm.Addr(rng.Int63n(int64(r.size)))
		if rng.Intn(100) < writePct {
			tx.Store(a, uint64(i)+1)
		} else {
			acc ^= tx.Load(a)
		}
	}
	return acc
}

// Fill writes v to every word non-transactionally (setup only).
func (r *RandomArray) Fill(v uint64) {
	for i := uint64(0); i < r.size; i++ {
		r.sys.Poke(r.base+rhtm.Addr(i), v)
	}
}
