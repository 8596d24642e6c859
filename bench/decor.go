package main

import (
	"sync"
	"sync/atomic"

	"rhtm"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/wal"
)

// Decorators on the public interfaces the layers are handed. Each passes
// every call through unchanged; while the tracer is armed it also records a
// span around the call. With the tracer off a decorated call costs one
// atomic load, so the timed pass measures the program.

// engineDecor goes under kv.NewLocal and cluster.Config.NewEngine.
type engineDecor struct {
	rhtm.Engine
	tr *tracer
}

func (e engineDecor) NewThread() rhtm.Thread {
	return &threadDecor{inner: e.Engine.NewThread(), tr: e.tr}
}

type threadDecor struct {
	inner rhtm.Thread
	tr    *tracer
}

func (t *threadDecor) Atomic(fn func(tx rhtm.Tx) error) error {
	sp := t.tr.begin(spanEngineAtomic, 0)
	err := t.inner.Atomic(fn)
	t.tr.end(sp)
	return err
}

// deviceDecor goes under kv.OpenLocal; storageDecor, which hands them out,
// under kv.OpenCluster and repl.NewClusterGroup.
type deviceDecor struct {
	wal.Device
	tr *tracer
}

func (d deviceDecor) Append(p []byte) error {
	sp := d.tr.begin(spanWALAppend, 0)
	err := d.Device.Append(p)
	d.tr.end(sp)
	return err
}

func (d deviceDecor) Sync() error {
	sp := d.tr.begin(spanWALSync, 0)
	err := d.Device.Sync()
	d.tr.end(sp)
	return err
}

// ContentsFrom keeps the incremental read the log tailer probes for.
func (d deviceDecor) ContentsFrom(off int) ([]byte, error) {
	if cf, ok := d.Device.(interface{ ContentsFrom(int) ([]byte, error) }); ok {
		return cf.ContentsFrom(off)
	}
	all, err := d.Device.Contents()
	if err != nil || off > len(all) {
		return nil, err
	}
	return all[off:], nil
}

type storageDecor struct {
	inner wal.Storage
	tr    *tracer
	mu    sync.Mutex
	devs  map[string]wal.Device
}

func newStorageDecor(inner wal.Storage, tr *tracer) *storageDecor {
	return &storageDecor{inner: inner, tr: tr, devs: map[string]wal.Device{}}
}

func (s *storageDecor) Device(name string) (wal.Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.devs[name]; ok {
		return d, nil
	}
	d, err := s.inner.Device(name)
	if err != nil {
		return nil, err
	}
	s.devs[name] = deviceDecor{Device: d, tr: s.tr}
	return s.devs[name], nil
}

// servedDB is what both kv backends offer a front end beyond kv.DB; the
// server and the follower-read path find these by type assertion, so the
// decorator must keep them.
type servedDB interface {
	kv.DB
	kv.FollowerReader
	UpdateRev(fn func(tx kv.Txn) error) (kv.Revision, error)
	UpdateRevTraced(sink obs.TraceSink, fn func(tx kv.Txn) error) (kv.Revision, error)
	BatchTraced(sink obs.TraceSink, ops []kv.Op) ([]kv.OpResult, error)
	WaitWatchIdle()
	SetTracer(t obs.Tracer)
}

var (
	_ servedDB = (*kv.Local)(nil)
	_ servedDB = (*kv.ClusterDB)(nil)
	_ servedDB = (*dbDecor)(nil)
)

// dbDecor goes under server.New and table.New. calls counts the data
// calls it passed through: the counting double of ROADMAP item 1.
type dbDecor struct {
	servedDB
	tr    *tracer
	calls atomic.Uint64
}

func (d *dbDecor) Get(key []byte) ([]byte, error) {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVGet, 0)
	v, err := d.servedDB.Get(key)
	d.tr.end(sp)
	return v, err
}

func (d *dbDecor) GetRev(key []byte) ([]byte, kv.Revision, error) {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVGetRev, 0)
	v, rev, err := d.servedDB.GetRev(key)
	d.tr.end(sp)
	return v, rev, err
}

func (d *dbDecor) Put(key, value []byte, opts ...kv.PutOption) error {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVPut, 0)
	err := d.servedDB.Put(key, value, opts...)
	d.tr.end(sp)
	return err
}

func (d *dbDecor) PutIf(key, value []byte, rev kv.Revision, opts ...kv.PutOption) error {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVPutIf, 0)
	err := d.servedDB.PutIf(key, value, rev, opts...)
	d.tr.end(sp)
	return err
}

func (d *dbDecor) Delete(key []byte) error {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVDelete, 0)
	err := d.servedDB.Delete(key)
	d.tr.end(sp)
	return err
}

func (d *dbDecor) DeleteIf(key []byte, rev kv.Revision) error {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVDeleteIf, 0)
	err := d.servedDB.DeleteIf(key, rev)
	d.tr.end(sp)
	return err
}

func (d *dbDecor) Update(fn func(tx kv.Txn) error) error {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVUpdate, 0)
	err := d.servedDB.Update(fn)
	d.tr.end(sp)
	return err
}

func (d *dbDecor) UpdateRev(fn func(tx kv.Txn) error) (kv.Revision, error) {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVUpdate, 0)
	rev, err := d.servedDB.UpdateRev(fn)
	d.tr.end(sp)
	return rev, err
}

func (d *dbDecor) UpdateRevTraced(sink obs.TraceSink, fn func(tx kv.Txn) error) (kv.Revision, error) {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVUpdate, 0)
	rev, err := d.servedDB.UpdateRevTraced(sink, fn)
	d.tr.end(sp)
	return rev, err
}

func (d *dbDecor) Batch(ops []kv.Op) ([]kv.OpResult, error) {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVBatch, 0)
	res, err := d.servedDB.Batch(ops)
	d.tr.end(sp)
	return res, err
}

func (d *dbDecor) BatchTraced(sink obs.TraceSink, ops []kv.Op) ([]kv.OpResult, error) {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVBatch, 0)
	res, err := d.servedDB.BatchTraced(sink, ops)
	d.tr.end(sp)
	return res, err
}

// Scan's span covers the snapshot read; both backends materialize the
// yielded prefix before returning the cursor.
func (d *dbDecor) Scan(start, end []byte, limit int) kv.Iterator {
	d.calls.Add(1)
	sp := d.tr.begin(spanKVScan, 0)
	it := d.servedDB.Scan(start, end, limit)
	d.tr.end(sp)
	return it
}
