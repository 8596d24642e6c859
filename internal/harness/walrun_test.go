package harness

import (
	"testing"
)

// TestKVWALRuns pins the -wal path of RunKV on both backends: populate
// goes through the DB (the log's sequence gate forbids setup-path writes),
// the run completes with the usual invariants (bank total conserved,
// structural validation including the checkpoint/durable watermark check),
// and the counters carry the log's.
func TestKVWALRuns(t *testing.T) {
	for _, spec := range []KVSpec{
		{Mix: "a", Records: 128, ValueBytes: 16, Shards: 2, WAL: true},
		{Mix: "bank", Records: 32, Systems: 2, CrossPct: 50, WAL: true, SyncEvery: 4},
	} {
		res, err := RunKV(spec, EngTL2, RunConfig{Threads: 2, OpsPerThread: 60, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		for _, name := range []string{"wal.txns", "wal.syncs", "wal.bytes"} {
			if res.Counters[name] <= 0 {
				t.Errorf("%s: counter %s missing or zero: %s", spec.Name(), name, digest(res.Counters))
			}
		}
	}
}

// TestRecoveryPointCheckpointBounds: the recovery experiment's midpoint
// checkpoint must shrink the replayed suffix versus the checkpoint-free
// run of the same length.
func TestRecoveryPointCheckpointBounds(t *testing.T) {
	plain := MustRecoveryPoint(600, 32, false).Counters
	ckpt := MustRecoveryPoint(600, 32, true).Counters
	const replayed, keys = "harness.recovery.replayed_txns", "harness.recovery.keys"
	if plain[replayed] != 600 {
		t.Fatalf("plain run replayed %d txns, want 600", plain[replayed])
	}
	if ckpt[replayed] >= plain[replayed]*2/3 {
		t.Fatalf("checkpoint did not bound replay: %d vs %d txns", ckpt[replayed], plain[replayed])
	}
	if plain[keys] != ckpt[keys] {
		t.Fatalf("recovered key counts diverge: %d vs %d", plain[keys], ckpt[keys])
	}
}
