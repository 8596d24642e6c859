package obs

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantiles pins the interpolation convention at exact
// bucket boundaries: the last rank of a bucket lands on its Le, the
// first rank interpolates up from the bucket's lower bound, and the
// zero bucket always reports 0.
func TestHistogramQuantiles(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		if got := h.Snapshot().P(0.99); got != 0 {
			t.Fatalf("P on empty = %d, want 0", got)
		}
	})
	t.Run("all-zero", func(t *testing.T) {
		var h Histogram
		for i := 0; i < 4; i++ {
			h.Observe(0)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.95, 1} {
			if got := s.P(q); got != 0 {
				t.Fatalf("P(%v) = %d, want 0 (zero bucket)", q, got)
			}
		}
	})
	t.Run("single-obs-hits-le", func(t *testing.T) {
		// One observation of 4 lands in bucket [4,7] (Le=7): with one
		// rank in the bucket, every quantile is the bucket's Le exactly.
		var h Histogram
		h.Observe(4)
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.95, 0.99, 1} {
			if got := s.P(q); got != 7 {
				t.Fatalf("P(%v) = %d, want 7 (bucket boundary)", q, got)
			}
		}
	})
	t.Run("two-buckets", func(t *testing.T) {
		// 1 → bucket Le=1; 8 → bucket [8,15]. Rank 1 resolves in the
		// first bucket at its boundary (1), rank 2 in the second at its
		// boundary (15).
		var h Histogram
		h.Observe(1)
		h.Observe(8)
		s := h.Snapshot()
		if got := s.P(0.5); got != 1 {
			t.Fatalf("P(0.5) = %d, want 1", got)
		}
		if got := s.P(1); got != 15 {
			t.Fatalf("P(1) = %d, want 15", got)
		}
	})
	t.Run("interpolation-within-bucket", func(t *testing.T) {
		// Four observations in bucket [8,15]: lo=8, hi=15, span 7.
		// Rank r of 4 sits at frac r/4: 8+1=9, 8+3=11, 8+5=13, 15.
		var h Histogram
		for i := 0; i < 4; i++ {
			h.Observe(9)
		}
		s := h.Snapshot()
		want := map[float64]uint64{0.25: 9, 0.5: 11, 0.75: 13, 1: 15}
		for q, w := range want {
			if got := s.P(q); got != w {
				t.Fatalf("P(%v) = %d, want %d", q, got, w)
			}
		}
	})
	t.Run("p99-tail", func(t *testing.T) {
		// 99 fast observations (value 1) and one slow (value 1000,
		// bucket [512,1023]): P(0.99) still resolves in the fast bucket
		// (rank 99), P(1) on the slow bucket's boundary.
		var h Histogram
		for i := 0; i < 99; i++ {
			h.Observe(1)
		}
		h.Observe(1000)
		s := h.Snapshot()
		if got := s.P(0.99); got != 1 {
			t.Fatalf("P(0.99) = %d, want 1", got)
		}
		if got := s.P(1); got != 1023 {
			t.Fatalf("P(1) = %d, want 1023", got)
		}
	})
	t.Run("nil-histogram", func(t *testing.T) {
		var h *Histogram
		if got := h.Snapshot().P(0.5); got != 0 {
			t.Fatalf("nil histogram P = %d, want 0", got)
		}
	})
}

// TestSamplerDeterminism: head-based sampling is a pure function of the
// request ordinal — one in every N, starting at the first.
func TestSamplerDeterminism(t *testing.T) {
	s := NewSampler(4)
	var picked []int
	for i := 0; i < 16; i++ {
		if s.Sample() {
			picked = append(picked, i)
		}
	}
	want := []int{0, 4, 8, 12}
	if len(picked) != len(want) {
		t.Fatalf("sampled %v, want %v", picked, want)
	}
	for i := range want {
		if picked[i] != want[i] {
			t.Fatalf("sampled %v, want %v", picked, want)
		}
	}
	if NewSampler(0) != nil || NewSampler(-3) != nil {
		t.Fatal("non-positive N must disable sampling (nil sampler)")
	}
	var off *Sampler
	if off.Sample() {
		t.Fatal("nil sampler sampled")
	}
	one := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !one.Sample() {
			t.Fatal("1-in-1 sampler must always sample")
		}
	}
}

// The disabled sampling path is the hot path: a nil sampler decision
// must not allocate.
func TestSamplerDisabledZeroAllocs(t *testing.T) {
	var s *Sampler
	allocs := testing.AllocsPerRun(1000, func() {
		if s.Sample() {
			panic("sampled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled sampler allocates %.1f/op, want 0", allocs)
	}
}

// TestTraceSnapshot pins what a finished trace captures: its stages in
// start order with their notes, one span per engine attempt, the commit
// revision, and the error text.
func TestTraceSnapshot(t *testing.T) {
	fl := NewFlight()
	tr := fl.NewTrace(7, "put")
	tr.Stage(StageQueueWait, 0)
	tr.Stage(StageBatchWait, 0)
	tr.Attempt(Span{Engine: "TL2", Attempt: 0, Outcome: OutcomeConflict})
	tr.Attempt(Span{Engine: "TL2", Attempt: 1, Outcome: OutcomeCommit, CommitRev: 9})
	tr.Stage(StageEngine, 0)
	tr.Stage(StageWALSync, 0)
	tr.SetCommitRev(9)
	tr.Finish(nil)
	fl.ReplicaApplied("r0", 9, 1, time.Millisecond)

	ts := tr.Snapshot()
	sort.SliceStable(ts.Stages, func(i, j int) bool { return ts.Stages[i].Start < ts.Stages[j].Start })
	var got []string
	for _, st := range ts.Stages {
		got = append(got, strings.TrimSpace(st.Name+" "+st.Note))
	}
	want := []string{"queue_wait", "batch_wait", "engine", "wal_sync", "replica_apply replica=r0"}
	if !slices.Equal(got, want) {
		t.Fatalf("stages %q, want %q", got, want)
	}
	if ts.Kind != "put" || ts.Err != "" || ts.CommitRev != 9 || len(ts.Spans) != 2 || ts.Spans[1].Outcome != OutcomeCommit {
		t.Fatalf("snapshot %+v", ts)
	}

	errTr := fl.NewTrace(8, "txn")
	errTr.Stage(StageEngine, 0)
	errTr.Attempt(Span{Engine: "TL2", Outcome: OutcomeError, Err: "boom"})
	errTr.Finish(errors.New("boom"))
	if ts := errTr.Snapshot(); ts.Err != "boom" || len(ts.Spans) != 1 || ts.Spans[0].Outcome != OutcomeError {
		t.Fatalf("error trace snapshot %+v", ts)
	}
}

// TestTraceStampsMonotonic: stage start offsets are monotonic in record
// order — the host monotonic clock is the only stamp source.
func TestTraceStampsMonotonic(t *testing.T) {
	fl := NewFlight()
	tr := fl.NewTrace(1, "get")
	for _, name := range []string{StageQueueWait, StageEngine, StageWALSync} {
		tr.Stage(name, 0)
	}
	tr.Finish(nil)
	snap := tr.Snapshot()
	for i := 1; i < len(snap.Stages); i++ {
		if snap.Stages[i].Start < snap.Stages[i-1].Start {
			t.Fatalf("stage %d starts before stage %d: %+v", i, i-1, snap.Stages)
		}
	}
	if snap.WallNS == 0 {
		t.Fatal("finished trace has zero wall time")
	}
}

// TestFlightRetention: the recorder always keeps the K slowest and the K
// most recent errors per kind, evicting everything else. It files K+1
// traces of each sort, so one of each must go.
func TestFlightRetention(t *testing.T) {
	fl := NewFlight()
	finish := func(id uint64, kind string, hold time.Duration, err error) {
		tr := fl.NewTrace(id, kind)
		tr.Stage(StageEngine, hold)
		if hold > 0 {
			time.Sleep(hold)
		}
		tr.Finish(err)
	}
	// Trace 1 is the fastest of K+1 successes, trace 3 the slowest.
	finish(1, "put", 0, nil)
	for id := uint64(2); id <= flightK+1; id++ {
		hold := 2 * time.Millisecond
		if id == 3 {
			hold = 16 * time.Millisecond
		}
		finish(id, "put", hold, nil)
	}
	const firstErr = 100
	for id := uint64(firstErr); id <= firstErr+flightK; id++ {
		finish(id, "put", 0, errors.New("fenced"))
	}

	d := fl.Dump()
	kd, ok := d.Kinds["put"]
	if !ok {
		t.Fatalf("kind missing from dump: %+v", d)
	}
	total := uint64(2*flightK + 2)
	if kd.Count != total || kd.Errors != flightK+1 {
		t.Fatalf("count=%d errors=%d, want %d/%d", kd.Count, kd.Errors, total, flightK+1)
	}
	if len(kd.Slowest) != flightK || kd.Slowest[0].ID != 3 {
		t.Fatalf("slowest = %+v, want %d traces led by id 3", kd.Slowest, flightK)
	}
	for i, ts := range kd.Slowest {
		if ts.ID == 1 {
			t.Fatal("the fastest trace outlived K slower ones")
		}
		if i > 0 && ts.WallNS > kd.Slowest[i-1].WallNS {
			t.Fatal("slowest list not descending")
		}
	}
	if n := len(kd.RecentErrors); n != flightK || kd.RecentErrors[0].ID != firstErr+1 || kd.RecentErrors[n-1].ID != firstErr+flightK {
		t.Fatalf("recent errors = %+v, want ids %d..%d", kd.RecentErrors, firstErr+1, firstErr+flightK)
	}
	if n := len(kd.Recent); n != flightK || kd.Recent[n-1].ID != firstErr+flightK {
		t.Fatalf("recent = %+v, want %d traces, newest id %d last", kd.Recent, flightK, firstErr+flightK)
	}
	st, ok := kd.Stages[StageEngine]
	if !ok || st.Count != total {
		t.Fatalf("engine stage stat = %+v, want count %d", st, total)
	}
	if st.P99NS < st.P50NS {
		t.Fatalf("p99 %d < p50 %d", st.P99NS, st.P50NS)
	}
}

// TestFlightAwaitingBounded: the awaiting-apply table cannot grow past
// 4×K — a replica-less deployment sheds the oldest links.
func TestFlightAwaitingBounded(t *testing.T) {
	fl := NewFlight()
	const revs = 5 * flightK
	for rev := uint64(1); rev <= revs; rev++ {
		tr := fl.NewTrace(rev, "put")
		tr.SetCommitRev(rev)
		tr.Finish(nil)
	}
	if got := fl.AwaitingApply(); got != 4*flightK {
		t.Fatalf("awaiting = %d, want %d (4×K bound)", got, 4*flightK)
	}
	fl.ReplicaApplied("r0", revs-4, 4, time.Millisecond)
	if got := fl.AwaitingApply(); got != 4 {
		t.Fatalf("awaiting after apply(%d) = %d, want 4", revs-4, got)
	}
	fl.ReplicaApplied("r0", revs, 4, time.Millisecond)
	if got := fl.AwaitingApply(); got != 0 {
		t.Fatalf("awaiting after apply(%d) = %d, want 0", revs, got)
	}
	// The traces inside the retained window got their replica stage.
	d := fl.Dump()
	var annotated int
	for _, ts := range d.Kinds["put"].Recent {
		for _, st := range ts.Stages {
			if st.Name == StageReplicaApply {
				annotated++
			}
		}
	}
	if annotated == 0 {
		t.Fatal("no retained trace gained a replica_apply stage")
	}
}

// TestFlightApplyBeforeRegister: a replica may apply a commit before the
// request that made it registers its revision. The trace is annotated at
// registration, not parked in the table for an apply that already happened;
// a revision past the watermark still waits for the next one.
func TestFlightApplyBeforeRegister(t *testing.T) {
	fl := NewFlight()
	fl.ReplicaApplied("r0", 9, 3, time.Millisecond)
	fl.ReplicaApplied("r1", 7, 1, time.Second) // behind r0: the mark stays r0's
	early := fl.NewTrace(1, "put")
	early.SetCommitRev(8)
	early.Finish(nil)
	late := fl.NewTrace(2, "put")
	late.SetCommitRev(10)
	late.Finish(nil)
	if got := fl.AwaitingApply(); got != 1 {
		t.Fatalf("awaiting = %d, want 1 (only rev 10)", got)
	}
	stagesOf := func(tr *Trace) []string {
		var out []string
		for _, st := range tr.Snapshot().Stages {
			out = append(out, strings.TrimSpace(st.Name+" "+st.Note))
			if st.Name == StageReplicaApply && st.Dur != time.Millisecond {
				t.Errorf("replica_apply lasted %v, want the %v of the apply that passed the revision", st.Dur, time.Millisecond)
			}
		}
		return out
	}
	if got, want := stagesOf(early), []string{"replica_apply replica=r0"}; !slices.Equal(got, want) {
		t.Fatalf("trace registered after its apply: stages %q, want %q", got, want)
	}
	if got := stagesOf(late); len(got) != 0 {
		t.Fatalf("trace past the watermark annotated early: %q", got)
	}
	fl.ReplicaApplied("r0", 10, 1, time.Millisecond)
	if got, want := stagesOf(late), []string{"replica_apply replica=r0"}; !slices.Equal(got, want) || fl.AwaitingApply() != 0 {
		t.Fatalf("after apply(10): stages %q, want %q; %d awaiting", got, want, fl.AwaitingApply())
	}
}

// TestMultiSinkBroadcast: one shared DB call fans its stages, spans, and
// commit rev out to every traced op in the batch.
func TestMultiSinkBroadcast(t *testing.T) {
	fl := NewFlight()
	a, b := fl.NewTrace(1, "put"), fl.NewTrace(2, "put")
	sink := MultiSink{a, b}
	sink.Stage(StageEngine, time.Microsecond)
	sink.Attempt(Span{Engine: "TL2", Outcome: OutcomeCommit})
	sink.SetCommitRev(5)
	for _, tr := range []*Trace{a, b} {
		s := tr.Snapshot()
		if len(s.Stages) != 1 || len(s.Spans) != 1 || s.CommitRev != 5 {
			t.Fatalf("broadcast missed trace %d: %+v", s.ID, s)
		}
	}
	if fl.AwaitingApply() != 1 {
		t.Fatal("duplicate rev must collapse to one awaiting entry")
	}
}

// TestRecordingTracerConcurrentReset is the -race hammer for the
// documented contract: TxnAttempt, Spans, Dropped, and Reset racing from
// many goroutines never tear a span or corrupt the bound.
func TestRecordingTracerConcurrentReset(t *testing.T) {
	tr := NewRecordingTracer()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.TxnAttempt(Span{Engine: "RH1", Attempt: i, Outcome: OutcomeConflict, Wall: time.Duration(g)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, s := range tr.Spans() {
				if s.Engine != "RH1" {
					panic("torn span")
				}
			}
			tr.Reset()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("reset did not clear after hammer")
	}
	tr.TxnAttempt(Span{Engine: "RH1"})
	if len(tr.Spans()) != 1 {
		t.Fatal("tracer unusable after hammer")
	}
}

// TestSnapshotConcurrentWithUpdates: Snapshot/Flatten taken while every
// registered instrument type is being updated stay internally consistent
// — counters are monotone across successive snapshots, label-pair names
// never tear, and Flatten always agrees with the snapshot it came from.
func TestSnapshotConcurrentWithUpdates(t *testing.T) {
	r := NewRegistry()
	cFast := r.Counter(Name("engine.commits", "path", "fast"))
	cSlow := r.Counter(Name("engine.commits", "path", "slow"))
	g := r.Gauge("depth")
	h := r.Histogram("latency")
	var fn int64
	r.GaugeFunc("live", func() int64 { return fn })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cFast.Inc()
				cSlow.Add(2)
				g.Add(1)
				h.Observe(i % 1024)
				// Register a fresh label pair mid-flight occasionally so
				// snapshots race with registry growth too.
				if i%512 == 0 {
					r.Counter(Name("engine.aborts", "path", "fast")).Inc()
				}
			}
		}()
	}

	wantNames := map[string]bool{
		"engine.commits{path=fast}": true,
		"engine.commits{path=slow}": true,
	}
	var prevFast, prevSlow uint64
	for i := 0; i < 300; i++ {
		snap := r.Snapshot()
		for name := range snap.Counters {
			if name != "engine.commits{path=fast}" &&
				name != "engine.commits{path=slow}" &&
				name != "engine.aborts{path=fast}" {
				t.Fatalf("torn or unknown counter name %q", name)
			}
		}
		for want := range wantNames {
			if _, ok := snap.Counters[want]; !ok {
				t.Fatalf("snapshot lost counter %q", want)
			}
		}
		fast, slow := snap.Counter("engine.commits{path=fast}"), snap.Counter("engine.commits{path=slow}")
		if fast < prevFast || slow < prevSlow {
			t.Fatalf("counter went backwards: fast %d→%d slow %d→%d", prevFast, fast, prevSlow, slow)
		}
		prevFast, prevSlow = fast, slow
		hs := snap.Histograms["latency"]
		flat := snap.Flatten()
		if flat["engine.commits{path=fast}"] != int64(fast) {
			t.Fatal("flatten disagrees with its snapshot")
		}
		if flat["latency.count"] != int64(hs.Count) || flat["latency.sum"] != int64(hs.Sum) {
			t.Fatal("flatten histogram fields disagree with snapshot")
		}
		fn++
	}
	close(stop)
	wg.Wait()
}
