package kv_test

import (
	"fmt"
	"runtime"
	"testing"

	"rhtm"
	"rhtm/containers"
	"rhtm/internal/enginetest"
	"rhtm/kv"
	"rhtm/store"
	"rhtm/wal"
)

// TestCheckpointScratch: a checkpoint of 20,000 records leaves behind only
// the device's copy of its image. Its peak also holds the snapshot's ops,
// the encoded unit and the read set of the RH1 slow-path transaction that
// took the snapshot; none of them may outlive it. The records are loaded
// on the store's setup path, before the log exists.
func TestCheckpointScratch(t *testing.T) {
	const records = 20_000
	s := rhtm.MustNewSystem(rhtm.DefaultConfig(1 << 21))
	sh := store.NewSharded(s, 4, store.Options{ArenaWords: 1 << 18})
	tx := containers.SetupTx(s)
	value := make([]byte, 64)
	for i := 0; i < records; i++ {
		if err := sh.Put(tx, []byte(fmt.Sprintf("user%08d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	dev := &wal.MemDevice{}
	db, err := kv.OpenLocal(rhtm.NewRH1(s, rhtm.RH1Options{MixPercent: 100}), sh, dev)
	if err != nil {
		t.Fatal(err)
	}
	heap0, dev0 := enginetest.LiveHeap(), dev.Size()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	grown, image := int64(enginetest.LiveHeap())-int64(heap0), int64(dev.Size()-dev0)
	runtime.KeepAlive(db)
	t.Logf("checkpoint of %d records: heap +%d bytes, device +%d", records, grown, image)
	if grown > image+1<<20 {
		t.Errorf("a checkpoint grew the heap by %d bytes, its image on the device by %d: want at most 1 MiB more", grown, image)
	}
}
