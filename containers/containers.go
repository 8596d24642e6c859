// Package containers provides the transactional data structures of the
// paper's evaluation — red-black tree, hash table, sorted list, and random
// array — built on the public rhtm API. Every field of every node is a word
// of simulated transactional memory, accessed exclusively through rhtm.Tx
// inside transactions.
//
// Each structure has the paper's "Constant" operations (§3), which never
// change the shape of the structure: lookups add dummy shared reads per
// visited node and updates write dummy fields, mimicking the
// cache-coherence footprint of real operations while keeping the emulated
// executions safe. Insert builds the structure during setup. The red-black
// tree also has real mutating operations (Lookup/Insert/Delete), which the
// paper's emulation could not run but a safe simulated HTM can; the
// extension experiments use them.
package containers

import (
	"rhtm"
)

// setupTx adapts a System's raw Peek/Poke to the rhtm.Tx interface so the
// same structure code can populate containers non-transactionally during
// single-threaded setup.
type setupTx struct{ s *rhtm.System }

// Load implements rhtm.Tx (setup only).
func (r setupTx) Load(a rhtm.Addr) uint64 { return r.s.Peek(a) }

// Store implements rhtm.Tx (setup only).
func (r setupTx) Store(a rhtm.Addr, v uint64) { r.s.Poke(a, v) }

// Unsupported implements rhtm.Tx (no-op during setup).
func (r setupTx) Unsupported() {}

// SetupTx returns a non-transactional rhtm.Tx over the system's raw memory.
// It is only safe while no transactions are in flight (population,
// validation); using it concurrently with running engines is a data race by
// design, exactly like initializing a shared structure without locks.
func SetupTx(s *rhtm.System) rhtm.Tx { return setupTx{s: s} }
