package server_test

import (
	"sync"
	"testing"

	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
)

// sinkSpy is a kv.Served that records the sink of every call the server
// makes through its two traced entry points.
type sinkSpy struct {
	kv.Served

	mu    sync.Mutex
	calls map[string][]obs.TraceSink // sinks, by entry point
}

func (s *sinkSpy) record(method string, sink obs.TraceSink) {
	s.mu.Lock()
	s.calls[method] = append(s.calls[method], sink)
	s.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (s *sinkSpy) take() map[string][]obs.TraceSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = map[string][]obs.TraceSink{}
	return calls
}

func (s *sinkSpy) UpdateRevTraced(sink obs.TraceSink, fn func(tx kv.Txn) error) (kv.Revision, error) {
	s.record("UpdateRevTraced", sink)
	return s.Served.UpdateRevTraced(sink, fn)
}

func (s *sinkSpy) BatchTraced(sink obs.TraceSink, ops []kv.Op) ([]kv.OpResult, error) {
	s.record("BatchTraced", sink)
	return s.Served.BatchTraced(sink, ops)
}

// TestUntracedRequestsPassNilSink pins the serving contract's nil sink: an
// untraced batched Get and Put, Batch, Txn and revision scan reach the DB
// with sink == nil — not an empty obs.MultiSink, not a nil *obs.Trace in an
// interface, either of which switches on the DB's stage timing — and the
// same requests traced reach it with a sink.
func TestUntracedRequestsPassNilSink(t *testing.T) {
	spy := &sinkSpy{Served: newLocalDB(t, nil), calls: map[string][]obs.TraceSink{}}
	srv := server.New(spy)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, traced := range []bool{false, true} {
		var opts []client.Option
		if traced {
			opts = append(opts, client.WithTraceSampling(1))
		}
		cl, err := client.Dial(addr.String(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Put([]byte("sink-a"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get([]byte("sink-a")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Batch([]kv.Op{{Kind: kv.OpPut, Key: []byte("sink-b"), Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		// A closure that scans sends a revision scan, then commits one Txn.
		err = cl.Update(func(tx kv.Txn) error {
			it := tx.Scan([]byte("sink-"), []byte("sink."), 0)
			for it.Next() {
			}
			if err := it.Err(); err != nil {
				return err
			}
			return tx.Put([]byte("sink-c"), []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Close()

		calls := spy.take()
		// Batched Put, batched Get, Batch; revision scan, Txn.
		if got := len(calls["BatchTraced"]); got != 3 {
			t.Errorf("traced=%v: %d BatchTraced calls, want 3", traced, got)
		}
		if got := len(calls["UpdateRevTraced"]); got != 2 {
			t.Errorf("traced=%v: %d UpdateRevTraced calls, want 2", traced, got)
		}
		for method, sinks := range calls {
			for i, sink := range sinks {
				if (sink != nil) != traced {
					t.Errorf("traced=%v: %s call %d got sink %#v", traced, method, i, sink)
				}
			}
		}
	}
}
