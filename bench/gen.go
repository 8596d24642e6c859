package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// Everything the program under test receives is generated here from the
// -seed: which record an operation touches, which operation it is, and the
// bytes it writes. The generators allocate nothing per operation, so the
// whole-process allocation metrics price the program, not the benchmark.

// valueBytes is the record payload size of every workload.
const valueBytes = 64

// callerRNG is the per-caller generator stream: the same (seed, caller)
// always yields the same operations, in the timed and the counted pass.
func callerRNG(seed int64, caller int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(caller)*7919))
}

// appendKey writes prefix followed by i as eight decimal digits.
func appendKey(dst []byte, prefix string, i int) []byte {
	dst = append(dst, prefix...)
	var d [8]byte
	for p := len(d) - 1; p >= 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, d[:]...)
}

// fillValue writes the value of version seq of record rec: the pair
// itself, then a stream derived from it and the seed. A reader can verify
// any returned value without knowing which write produced it.
func fillValue(dst []byte, seed int64, rec, seq uint32) {
	binary.LittleEndian.PutUint32(dst[0:], rec)
	binary.LittleEndian.PutUint32(dst[4:], seq)
	x := uint64(seed) ^ uint64(rec)<<32 ^ uint64(seq)
	for i := 8; i+8 <= len(dst); i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// checkValue reports the version v holds when v is an intact value of
// record rec; scratch is a valueBytes buffer.
func checkValue(v, scratch []byte, seed int64, rec uint32) (seq uint32, ok bool) {
	if len(v) != valueBytes || binary.LittleEndian.Uint32(v) != rec {
		return 0, false
	}
	seq = binary.LittleEndian.Uint32(v[4:])
	fillValue(scratch, seed, rec, seq)
	return seq, string(v) == string(scratch)
}

// zipfian draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta: the
// generator of Gray et al. (SIGMOD '94) that YCSB uses. math/rand.Zipf
// cannot express theta < 1, the regime YCSB runs in.
type zipfian struct {
	n                       int
	alpha, zetan, eta, half float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipfian{
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half:  math.Pow(0.5, theta),
	}
}

// record draws one record index: the rank is hashed over the key space, as
// YCSB's scrambled generator does, so the hot records spread over shards
// and Systems.
func (z *zipfian) record(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	rank := 0
	switch {
	case uz < 1:
	case uz < 1+z.half:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	h := uint64(14695981039346656037) // FNV-1a of the rank's bytes
	for v, i := uint64(rank), 0; i < 8; i++ {
		h = (h ^ v&0xff) * 1099511628211
		v >>= 8
	}
	return int(h % uint64(z.n))
}

// zipfTheta is YCSB's default skew.
const zipfTheta = 0.99
