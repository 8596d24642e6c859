// kvstore builds a concurrent key-value service on the unified kv.DB
// interface: writers move variable-length records between a "hot" and a
// "cold" keyspace atomically with Update closure transactions (the classic
// "cannot be done with two independent concurrent maps" operation), while
// an auditing reader keeps verifying that every record lives in exactly one
// keyspace with its payload intact. Population runs through one Batch call,
// and the final verification walks both keyspaces with Scan cursors —
// every part of the kv.DB contract in one program.
//
// The same code runs unchanged against the cluster backend: swap NewLocal
// for kv.NewCluster(c), with c from cluster.New, and the closures commit
// via two-phase commit instead of one engine transaction.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"rhtm"
	"rhtm/kv"
	"rhtm/store"
)

const (
	keySpace = 256
	movers   = 4
	moves    = 150
	shards   = 4
)

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

// hotKey/coldKey place record i in one of the two keyspaces; the prefixes
// keep each keyspace a contiguous range of the ordered index, so a Scan
// over "hot:".."hot;" is exactly the hot side.
func hotKey(i int) []byte  { return []byte(fmt.Sprintf("hot:item-%03d", i)) }
func coldKey(i int) []byte { return []byte(fmt.Sprintf("cold:item-%03d", i)) }

// value derives a record's payload from its index; lengths vary from 1 to
// 40 bytes so the moves exercise the varlen codec and the arena's
// size-class recycling.
func value(i int) []byte {
	v := bytes.Repeat([]byte{byte('a' + i%26)}, i%40+1)
	return append(v, []byte(fmt.Sprintf("#%d", i))...)
}

// run executes the scenario and returns a human-readable summary; the smoke
// test drives it directly.
func run() (string, error) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 18))
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	sh := store.NewSharded(s, shards, store.Options{ArenaWords: 1 << 14})
	db := kv.NewLocal(eng, sh)

	// Everything starts hot: one batch, one transaction.
	ops := make([]kv.Op, keySpace)
	for i := range ops {
		ops[i] = kv.Op{Kind: kv.OpPut, Key: hotKey(i), Value: value(i)}
	}
	if _, err := db.Batch(ops); err != nil {
		return "", fmt.Errorf("populate: %w", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, movers+1)

	// Auditor: each record must be in exactly one keyspace, with its
	// original payload, at every instant — checked inside one transaction.
	// It starts before the movers and signals its first pass, so the run is
	// guaranteed to audit concurrent state, not just the quiet ends.
	stopAudit := make(chan struct{})
	firstAudit := make(chan struct{})
	var audits int
	var auditWg sync.WaitGroup
	auditWg.Add(1)
	go func() {
		defer auditWg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stopAudit:
				return
			default:
			}
			i := rng.Intn(keySpace)
			err := db.Update(func(tx kv.Txn) error {
				vh, errH := tx.Get(hotKey(i))
				vc, errC := tx.Get(coldKey(i))
				inHot, inCold := errH == nil, errC == nil
				for _, err := range []error{errH, errC} {
					if err != nil && !errors.Is(err, kv.ErrNotFound) {
						return err
					}
				}
				if inHot == inCold {
					return fmt.Errorf("key %d: inHot=%v inCold=%v", i, inHot, inCold)
				}
				v := vh
				if inCold {
					v = vc
				}
				if !bytes.Equal(v, value(i)) {
					return fmt.Errorf("key %d: payload corrupted: %q", i, v)
				}
				return nil
			})
			if err != nil {
				errs <- fmt.Errorf("audit violation: %w", err)
				return
			}
			audits++
			if audits == 1 {
				close(firstAudit)
			}
		}
	}()
	select {
	case <-firstAudit:
	case err := <-errs:
		return "", err
	}

	for w := 0; w < movers; w++ {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < moves; i++ {
				idx := rng.Intn(keySpace)
				src, dst := hotKey(idx), coldKey(idx)
				if rng.Intn(2) == 0 {
					src, dst = dst, src
				}
				err := db.Update(func(tx kv.Txn) error {
					v, err := tx.Get(src)
					if errors.Is(err, kv.ErrNotFound) {
						return nil // already on the other side
					}
					if err != nil {
						return err
					}
					if err := tx.Delete(src); err != nil {
						return err
					}
					return tx.Put(dst, v)
				})
				if err != nil {
					errs <- fmt.Errorf("move: %w", err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopAudit)
	auditWg.Wait()
	select {
	case err := <-errs:
		return "", err
	default:
	}

	// Final verification with Scan cursors: exactly keySpace records across
	// the two keyspaces, every payload intact, the store structurally valid.
	count := func(prefix string) (int, error) {
		it := db.Scan([]byte(prefix+":"), []byte(prefix+";"), 0)
		n := 0
		for it.Next() {
			var i int
			if _, err := fmt.Sscanf(string(it.Key()), prefix+":item-%03d", &i); err != nil {
				return 0, fmt.Errorf("unexpected key %q", it.Key())
			}
			if !bytes.Equal(it.Value(), value(i)) {
				return 0, fmt.Errorf("key %d: corrupted after run", i)
			}
			n++
		}
		return n, it.Err()
	}
	nh, err := count("hot")
	if err != nil {
		return "", err
	}
	nc, err := count("cold")
	if err != nil {
		return "", err
	}
	if nh+nc != keySpace {
		return "", fmt.Errorf("keys lost or duplicated: hot=%d cold=%d total=%d want=%d",
			nh, nc, nh+nc, keySpace)
	}
	if err := sh.Validate(); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}

	st := eng.Snapshot()
	var b bytes.Buffer
	fmt.Fprintf(&b, "kvstore ok: hot=%d cold=%d (total %d), %d audits passed\n",
		nh, nc, nh+nc, audits)
	fmt.Fprintf(&b, "engine %s: %s\n", eng.Name(), st)
	return b.String(), nil
}
