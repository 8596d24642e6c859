package harness

import (
	"fmt"
	"io"
	"time"

	"rhtm"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// The recovery experiment: how replay time scales with log size, and what
// a mid-run checkpoint buys. Each point writes a transaction stream
// through a durable Local DB (cycling over a bounded key set, so state
// stays fixed while the log grows), crashes at the end of the log, and
// times a cold open — scan, replay, writer bring-up — of a fresh System
// over the crashed image.

// recoveryKeys bounds the key set a recovery point cycles over.
const recoveryKeys = 512

// MustRecoveryPoint measures one (ops, checkpoint) recovery point — ops
// logged transactions, a checkpoint written at the midpoint or not — as a
// Result row: Ops counts the logged transactions, Elapsed is the cold-open
// wall time, and the harness.recovery.* counters carry the crashed log's
// size, the committed groups the recovery scan yielded (the post-checkpoint
// suffix) and the recovered live keys.
func MustRecoveryPoint(ops int, valueBytes int, checkpoint bool) Result {
	build := func(stg *wal.MemStorage) (*kv.Local, *store.Sharded) {
		perRecord := store.RecordFootprintWords(len(ycsbKey(0)), valueBytes)
		arenaWords := recoveryKeys*perRecord*2/4 + 4096
		const shards = 4
		s := rhtm.MustNewSystem(rhtm.DefaultConfig(systemWords(shards, arenaWords)))
		eng, err := Build(s, EngTL2, 0)
		if err != nil {
			panic(err)
		}
		sh := store.NewSharded(s, shards, store.Options{ArenaWords: arenaWords})
		dev, err := stg.Device("wal")
		if err != nil {
			panic(err)
		}
		db, err := kv.OpenLocal(eng, sh, dev, kv.WithSyncEvery(64))
		if err != nil {
			panic(err)
		}
		return db, sh
	}
	stg := wal.NewMemStorage()
	db, _ := build(stg)
	val := make([]byte, valueBytes)
	for i := 0; i < ops; i++ {
		val[0] = byte(i)
		if err := db.Put(ycsbKey(i%recoveryKeys), val); err != nil {
			panic(fmt.Sprintf("harness: recovery populate: %v", err))
		}
		if checkpoint && i == ops/2 {
			if err := db.Checkpoint(); err != nil {
				panic(fmt.Sprintf("harness: recovery checkpoint: %v", err))
			}
		}
	}
	img := stg.CrashImage(stg.Appended())
	dev, err := img.Device("wal")
	if err != nil {
		panic(err)
	}
	data, err := dev.Contents()
	if err != nil {
		panic(err)
	}
	sr := wal.Scan(data)

	start := time.Now()
	db2, sh2 := build(img)
	open := time.Since(start)

	keys := 0
	it := db2.Scan(nil, nil, 0)
	for it.Next() {
		keys++
	}
	if err := it.Err(); err != nil {
		panic(err)
	}
	if err := sh2.Validate(); err != nil {
		panic(fmt.Sprintf("harness: recovered store invalid: %v", err))
	}
	name := fmt.Sprintf("recovery/ops=%d", ops)
	if checkpoint {
		name += "/ckpt"
	}
	return Result{
		Workload: name,
		Engine:   EngTL2,
		Threads:  1,
		Ops:      uint64(ops),
		Elapsed:  open,
		Counters: map[string]int64{
			"harness.recovery.log_bytes":     int64(len(data)),
			"harness.recovery.replayed_txns": int64(len(sr.Txns)),
			"harness.recovery.keys":          int64(keys),
		},
	}
}

// RecoveryExperiment sweeps log sizes with and without a midpoint
// checkpoint.
func RecoveryExperiment(opsList []int, valueBytes int) []Result {
	var out []Result
	for _, ops := range opsList {
		for _, ckpt := range []bool{false, true} {
			out = append(out, MustRecoveryPoint(ops, valueBytes, ckpt))
		}
	}
	return out
}

// PrintRecovery renders the recovery sweep.
func PrintRecovery(w io.Writer, points []Result) {
	fmt.Fprintf(w, "# Recovery: log size vs cold-open replay time (TL2, %d-key working set, sync every 64)\n", recoveryKeys)
	fmt.Fprintf(w, "%-24s  %12s  %14s  %12s  %6s\n",
		"point", "log bytes", "replayed txns", "open time", "keys")
	for _, p := range points {
		fmt.Fprintf(w, "%-24s  %12d  %14d  %12s  %6d\n", p.Workload,
			p.Counters["harness.recovery.log_bytes"], p.Counters["harness.recovery.replayed_txns"],
			p.Elapsed.Round(10*time.Microsecond), p.Counters["harness.recovery.keys"])
	}
}
