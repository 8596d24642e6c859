// durability is the kill-and-recover loop: a bank of accounts lives in a
// durable kv.DB (kv.OpenLocal over a crash-injectable device), concurrent
// movers transfer money with closure transactions, and every generation
// the process "dies" — the simulated machine and all volatile state are
// thrown away, and a crash image of the write-ahead log (cut at a random
// byte, torn tail and all) is all that survives. Recovery reopens the log
// into a fresh System and the audit proves the invariant: either the bank
// never funded (the cut severed the funding batch — itself atomic) or
// every account is present and the total is exactly conserved. A midpoint
// checkpoint exercises the replay-bounding path; the summary reports how
// much of each generation's log survived and how many transactions each
// recovery replayed.
//
// A last stage moves the surviving bank onto wal.NewFileStorage and reopens
// the directory on a fresh machine, as a restarted process would: the same
// recovery, over a real file.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"

	"rhtm"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

const (
	accounts    = 16
	initial     = 1000
	movers      = 3
	transfers   = 40 // per mover per generation
	generations = 5
	shards      = 4
)

func main() {
	summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary)
}

func acct(i int) []byte { return []byte(fmt.Sprintf("acct-%03d", i)) }

func enc(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// open builds a fresh simulated machine over whatever the storage holds —
// the "reboot" half of the kill-and-recover loop.
func open(stg wal.Storage) (*kv.Local, *store.Sharded, error) {
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 17))
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	sh := store.NewSharded(s, shards, store.Options{ArenaWords: 1 << 13})
	dev, err := stg.Device("bank")
	if err != nil {
		return nil, nil, err
	}
	db, err := kv.OpenLocal(eng, sh, dev)
	if err != nil {
		return nil, nil, err
	}
	return db, sh, nil
}

// audit scans the recovered bank: all-or-nothing presence, conserved total.
func audit(db kv.DB) (present int, total uint64, err error) {
	it := db.Scan([]byte("acct-"), []byte("acct-~"), 0)
	for it.Next() {
		present++
		total += binary.LittleEndian.Uint64(it.Value())
	}
	return present, total, it.Err()
}

func run() (string, error) {
	stg := wal.NewMemStorage()
	rng := rand.New(rand.NewSource(1))
	var out strings.Builder

	db, _, err := open(stg)
	if err != nil {
		return "", err
	}
	setup := make([]kv.Op, accounts)
	for i := range setup {
		setup[i] = kv.Op{Kind: kv.OpPut, Key: acct(i), Value: enc(initial)}
	}
	if _, err := db.Batch(setup); err != nil {
		return "", err
	}
	// Crashes never cut below the funding batch: the generations model a
	// running service, not a failed bootstrap. (Cutting below it is legal
	// too — the batch is atomic, so the bank would recover empty — and the
	// conformance battery's crash fuzz covers exactly that.)
	floor := stg.Appended()

	recoveredTxns := 0
	for gen := 1; gen <= generations; gen++ {
		if gen > 1 {
			// Fold the previous generations into a checkpoint before this
			// one's traffic: recovery then replays roughly one generation's
			// transactions instead of the whole history. The checkpoint sits
			// below the crash floor, so every cut keeps it.
			if err := db.Checkpoint(); err != nil {
				return "", err
			}
			floor = stg.Appended()
		}
		var wg sync.WaitGroup
		for m := 0; m < movers; m++ {
			mrng := rand.New(rand.NewSource(int64(gen*100 + m)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < transfers; i++ {
					from, to := mrng.Intn(accounts), mrng.Intn(accounts)
					if from == to {
						continue
					}
					amt := uint64(mrng.Intn(20) + 1)
					err := db.Update(func(tx kv.Txn) error {
						fv, err := tx.Get(acct(from))
						if err != nil {
							return err
						}
						f := binary.LittleEndian.Uint64(fv)
						if f < amt {
							return nil
						}
						tv, err := tx.Get(acct(to))
						if err != nil {
							return err
						}
						if err := tx.Put(acct(from), enc(f-amt)); err != nil {
							return err
						}
						return tx.Put(acct(to), enc(binary.LittleEndian.Uint64(tv)+amt))
					})
					if err != nil {
						panic(fmt.Sprintf("transfer: %v", err))
					}
				}
			}()
		}
		wg.Wait()

		// Kill: pick a crash point anywhere in this generation's log tail
		// (mid-record cuts included) and throw the machine away.
		end := stg.Appended()
		cut := floor + uint64(rng.Int63n(int64(end-floor)+1))
		img := stg.CrashImage(cut)

		// Recover: fresh machine over the crash image.
		db2, sh2, err := open(img)
		if err != nil {
			return "", fmt.Errorf("generation %d: recover: %w", gen, err)
		}
		present, total, err := audit(db2)
		if err != nil {
			return "", err
		}
		if present != accounts {
			return "", fmt.Errorf("generation %d: %d of %d accounts survived — funding torn",
				gen, present, accounts)
		}
		if total != accounts*initial {
			return "", fmt.Errorf("generation %d: total %d, want %d — money not conserved",
				gen, total, accounts*initial)
		}
		if err := sh2.Validate(); err != nil {
			return "", fmt.Errorf("generation %d: %w", gen, err)
		}
		dev, err := img.Device("bank")
		if err != nil {
			return "", err
		}
		data, err := dev.Contents()
		if err != nil {
			return "", err
		}
		sr := wal.Scan(data)
		recoveredTxns += len(sr.Txns)
		fmt.Fprintf(&out, "generation %d: crashed %d of %d log bytes, replayed %d txns (+checkpoint %d entries), total %d ok\n",
			gen, cut, end, len(sr.Txns), len(sr.Checkpoint), total)

		// The recovered DB is the next generation's bank; the old storage
		// is gone with the crash.
		db = db2
		stg = img
		floor = stg.Appended()
	}
	if err := restart(db, &out); err != nil {
		return "", err
	}
	fmt.Fprintf(&out, "durability ok: %d generations crash-recovered, %d txns replayed, invariant %d held\n",
		generations, recoveredTxns, accounts*initial)
	return out.String(), nil
}

// restart writes the bank into a file-backed log, then reopens that
// directory on a fresh machine and audits what recovery read back.
func restart(db kv.DB, out *strings.Builder) error {
	dir, err := os.MkdirTemp("", "durability-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files, err := wal.NewFileStorage(dir)
	if err != nil {
		return err
	}
	fdb, _, err := open(files)
	if err != nil {
		return err
	}
	var bank []kv.Op
	it := db.Scan([]byte("acct-"), []byte("acct-~"), 0)
	for it.Next() {
		bank = append(bank, kv.Op{Kind: kv.OpPut, Key: it.Key(), Value: it.Value()})
	}
	if err := it.Err(); err != nil {
		return err
	}
	if _, err := fdb.Batch(bank); err != nil {
		return err
	}
	reopened, _, err := open(files)
	if err != nil {
		return err
	}
	present, total, err := audit(reopened)
	if err != nil {
		return err
	}
	if present != accounts || total != accounts*initial {
		return fmt.Errorf("file restart: %d accounts, total %d", present, total)
	}
	fmt.Fprintf(out, "file restart: %d accounts reopened from disk, total %d ok\n", present, total)
	return nil
}
