// Package scratch is the one retention rule for buffers a type reuses from
// one operation to the next: an encode buffer, a transaction's read and
// write sets, a capture slab. Reuse saves an allocation per operation, but a
// reused buffer keeps the backing array of the largest operation it ever
// served — a checkpoint image, a replica's catch-up transaction, a 64 MiB
// frame — for as long as its owner lives. So the owner hands the buffer to
// Reset where the operation that grew it ends: a buffer within Bound is kept
// for reuse, a larger one goes to the collector and the next operation
// starts small again.
package scratch

import "unsafe"

// Bound is the most bytes of backing array a reused buffer keeps once the
// operation that grew it has ended.
const Bound = 64 << 10

// Over reports whether s's backing array is larger than Bound. Owners of a
// structure that grows with a slice but cannot be measured itself (a map
// never shrinks and has no capacity to read) drop it when its slice is
// over.
func Over[E any](s []E) bool {
	var e E
	return uint64(cap(s))*uint64(unsafe.Sizeof(e)) > Bound
}

// Reset returns s emptied for the next operation: s[:0] while its backing
// array is within Bound, nil once it is over.
func Reset[S ~[]E, E any](s S) S {
	if Over(s) {
		return nil
	}
	return s[:0]
}

// Release is Reset for a buffer whose entries hold pointers: it zeroes them
// first, so no emptied entry keeps a key or value of the last operation
// alive.
func Release[S ~[]E, E any](s S) S {
	clear(s)
	return Reset(s)
}
