package memsim

import "fmt"

// Region is a contiguous range of words carved out of a Memory. Regions give
// each subsystem (globals, TM metadata arrays, the data heap) its own address
// range, the way a linker script lays out segments.
type Region struct {
	// Base is the first word of the region.
	Base Addr
	// Size is the region length in words.
	Size int
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && a < r.Base+Addr(r.Size)
}

// Addr returns the address of the i-th word of the region, panicking on
// out-of-range indices (an out-of-region access is a bug, not a condition).
func (r Region) Addr(i int) Addr {
	if i < 0 || i >= r.Size {
		panic(fmt.Sprintf("memsim: region index %d out of range [0,%d)", i, r.Size))
	}
	return r.Base + Addr(i)
}

// AllocRegion reserves a fresh region of the given size, aligned to a line
// boundary so that distinct regions never share a conflict-detection line.
// It returns an error when the memory is exhausted.
func (m *Memory) AllocRegion(size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("memsim: region size %d must be positive", size)
	}
	m.regionMu.Lock()
	defer m.regionMu.Unlock()
	lineWords := Addr(m.cfg.WordsPerLine)
	base := (m.nextFree + lineWords - 1) &^ (lineWords - 1)
	if base == 0 {
		base = lineWords // keep the null word out of any region
	}
	end := base + Addr(size)
	if end > Addr(m.cfg.Words) {
		return Region{}, fmt.Errorf("memsim: out of memory: need %d words at %d, have %d",
			size, base, m.cfg.Words)
	}
	m.nextFree = end
	return Region{Base: base, Size: size}, nil
}
