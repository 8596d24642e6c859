// Command bench is the repository's benchmark: five workloads measured on
// two clocks, with every output checked. See README.md for the metric
// tables, the method and the predictions later changes are held to.
//
//	go run ./bench -workload kv-a -seed 1 -seconds 12 -trace 0
//
// runs one workload and prints its end-to-end metrics (-trace 1: its
// per-layer metrics), the last line as one JSON object. -workload all runs
// the five in turn; -selfcheck K runs two interleaved sets of K and compares
// their medians against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var workloads = []*workload{&rbtree20, &kvA, &netCClosed, &stackA, &tableQuery}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is one run's shape. A real run's timed pass is -seconds long, cut
// into the workload's segments, after a 1 s warm-up; the tests shrink all
// three along with the sizes.
type config struct {
	seed    int64
	timed   time.Duration // the timed pass
	segment time.Duration // its windows; 0: the workload's own
	warmup  time.Duration
	trace   bool
	scale   int
	guard   bool   // enforce the sizing guard (real runs)
	spans   string // span file to write after a traced run
}

const (
	// segmentFloor is the least the median segment may hold (a stalled
	// segment is the host's doing and merely drops out of the quiet window);
	// runCeiling is the most a workload's run may take. Past either, the
	// benchmark needs re-sizing in a change of its own, not a silent change
	// of what it measures.
	segmentFloor = 100
	runCeiling   = 30 * time.Second
	minSeconds   = 12 // the least -seconds: table-query’s 1 s segments must number a dozen
	spanCapacity = 1 << 19
)

// result is what one run reports.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`

	hash       uint64 // of the counted pass's operation stream
	acct       accounts
	e2e, layer map[string]float64 // both sets, whichever Metrics carries
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every generator (hold-out: 2)")
	seconds := flag.Int("seconds", 12, "timed-pass length")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: spans on in the counted pass, per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1: write the counted pass's spans to this file as JSON lines")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of this many runs per workload and compare them")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}

	if *seconds < minSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds %d: the quiet-window estimators need at least %d one-second segments\n", *seconds, minSeconds)
		os.Exit(2)
	}
	cfg := config{seed: *seed, timed: time.Duration(*seconds) * time.Second, warmup: time.Second,
		trace: *trace != 0, scale: 1, guard: true, spans: *spans}
	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(*selfcheck, cfg))
	case *name == "all":
		for _, w := range workloads {
			if _, err := runChild(w.name, cfg, true); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		return
	}
	w := workloadNamed(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	printHeader(w, cfg)
	res, err := runWorkload(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printHeader(w *workload, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("bench: workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		w.name, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("sizes: callers=%d closed-loop counted_ops=%d timed=%v in segments of %v warmup=%v setups=3\n",
		w.callers, w.counted, cfg.timed, w.segment, cfg.warmup)
	fmt.Printf("why: %s\n", w.why)
}

// runWorkload measures one workload:
//
//	build #1                      (set-up timing only)
//	build #2 → counted pass       fixed op count on a fresh stack, so every
//	           → heap → checks    simulated count repeats; spans on if traced
//	build #3 → warm-up → timed    tracing off; every op's latency recorded
//	           pass → checks
//
// The counted pass runs on its own fresh stack rather than after the timed
// pass: how many operations a timed pass fits depends on the host, and the
// state they leave behind (tree shapes, log length) would leak into the
// counts and the heap.
func runWorkload(w *workload, cfg config, out io.Writer) (result, error) {
	var res result
	began := time.Now()
	segment := cfg.segment
	if segment == 0 {
		segment = w.segment
	}
	segments := int(cfg.timed / segment)
	phase := func(name string, since time.Time) {
		fmt.Fprintf(out, "phase %-12s %7.3fs\n", name, time.Since(since).Seconds())
	}
	capacity := 0
	if cfg.trace {
		capacity = spanCapacity
	}
	e := &env{seed: cfg.seed, scale: cfg.scale, tr: newTracer(w.kinds, w.inproc, capacity)}
	m := measured{w: w, cs: &counted{}}
	errs := &firstError{}
	build := func(n int) (stack, error) {
		t := time.Now()
		st, err := w.build(e)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(t))
		phase(fmt.Sprintf("setup#%d", n), t)
		return st, nil
	}
	callers := func(st stack, sampled bool) []caller {
		cs := make([]caller, w.callers)
		for i := range cs {
			cs[i] = st.caller(i, sampled)
		}
		return cs
	}

	st, err := build(1)
	if err != nil {
		return res, err
	}
	st.close()

	// Counted pass.
	if st, err = build(2); err != nil {
		return res, err
	}
	t := time.Now()
	n := e.scaled(w.counted)
	p := pass{callers: callers(st, cfg.trace), cs: m.cs, tr: e.tr, st: st, errs: errs}
	// An untraced half-length run first: it warms the caches, and being a
	// count it leaves the same state behind every time. Its rate, taken in
	// the window right before the traced one, is what tracing is charged
	// against.
	p.count(n/2, false, false)
	m.untraced = float64(n/2) / time.Since(t).Seconds()
	if err := st.settle(); err != nil {
		return res, err
	}
	before := st.ledger()
	e.tr.arm()
	p.count(n, true, w.inproc)
	e.tr.disarm()
	ts := time.Now()
	if err := st.settle(); err != nil {
		return res, err
	}
	m.catchup = time.Since(ts)
	m.after = st.ledger()
	m.d = m.after.minus(before)
	phase("counted", t)
	t = time.Now()
	m.heapMB = heapMB()
	if cfg.trace {
		m.acct = e.tr.account()
		if m.acct.overflow {
			return res, fmt.Errorf("sizing: %s recorded %d spans in a ring of %d", w.name, m.acct.spans, spanCapacity)
		}
		if cfg.spans != "" {
			if err := e.tr.writeSpans(cfg.spans); err != nil {
				return res, err
			}
		}
	}
	checkErr := st.check()
	st.close()
	st = nil
	phase("check#2", t)

	// Timed pass.
	if st, err = build(3); err != nil {
		return res, err
	}
	t = time.Now()
	p = pass{callers: callers(st, false), tr: e.tr, st: st, errs: errs}
	p.timed(cfg.warmup)
	phase("warmup", t)
	p.recs = make([]*recorder, w.callers)
	for i := range p.recs {
		p.recs[i] = newRecorder(int(float64(w.rate) * cfg.timed.Seconds()))
	}
	t = time.Now()
	m.h0 = sampleHost()
	p.timed(cfg.timed)
	m.h1 = sampleHost()
	phase("timed", t)
	t = time.Now()
	if m.timed, err = summarize(p.recs, segments, segment); err != nil {
		return res, err
	}
	p.recs = nil
	if err := st.settle(); err != nil {
		return res, err
	}
	checkErr = errors.Join(checkErr, st.check())
	st.close()
	phase("check#3", t)
	if cfg.trace {
		if m.micro, err = runMicro(20_000); err != nil {
			return res, err
		}
	}
	total := time.Since(began)
	fmt.Fprintf(out, "phase %-12s %7.3fs\n", "total", total.Seconds())
	fmt.Fprintf(out, "timed: %d ops in %d segments of %v, %d in the median segment; p50_us is over the %d ops of the quiet half\n",
		m.timed.ops, segments, segment, m.timed.medSegOps, m.timed.quietOps)
	fmt.Fprintf(out, "counted: %d ops, op-stream hash %016x\n", m.cs.ops, m.cs.hash)

	res.Attempted = m.timed.ops + m.cs.ops
	res.Failed = m.timed.failed + m.cs.failed
	res.hash = m.cs.hash
	res.acct = m.acct
	res.Metrics = map[string]metricOut{}
	res.e2e = m.endToEnd()
	report := func(kind string, defs []metricDef, values map[string]float64, final bool) {
		for _, d := range defs {
			fmt.Fprintf(out, "%-5s %-32s %16.4f %s\n", kind, d.name, values[d.name], d.unit)
			if final {
				res.Metrics[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
			}
		}
	}
	report("e2e", endToEnd, res.e2e, !cfg.trace)
	if cfg.trace {
		res.layer = m.perLayer()
		printAccounts(out, m.acct, float64(m.cs.ops))
		report("layer", perLayer, res.layer, true)
	}

	if checkErr != nil {
		fmt.Fprintf(out, "INCORRECT: %v\n", checkErr)
	}
	if res.Failed > 0 {
		fmt.Fprintf(out, "INCORRECT: %d of %d operations failed, first: %v\n", res.Failed, res.Attempted, errs.err)
	}
	res.Correct = checkErr == nil && res.Failed == 0
	if cfg.guard {
		switch {
		case total > runCeiling:
			return res, fmt.Errorf("sizing: %s took %v, over the %v ceiling: re-size the benchmark", w.name, total, runCeiling)
		case m.timed.medSegOps < segmentFloor:
			return res, fmt.Errorf("sizing: the median %s segment held %d ops, under the floor of %d: re-size the benchmark",
				w.name, m.timed.medSegOps, segmentFloor)
		}
	}
	return res, nil
}

// benchmarkJSON renders the benchmark's contract file from the tables this
// program measures by; bench_test.go fails when the committed file drifts.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: minSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, better(d.higher), d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, better(d.higher)})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

// printAccounts prints where the counted pass's root time went, layer by
// layer, and what was left unattributed.
func printAccounts(out io.Writer, a accounts, ops float64) {
	layers := make([]string, 0, len(a.self))
	for l := range a.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s=%.3f", l, float64(a.self[l])/1e3/ops))
	}
	fmt.Fprintf(out, "spans: %d; root %.3f us/op = self %s (sum %.3f); unattributed %.3f us/op\n",
		a.spans, float64(a.rootTotal)/1e3/ops, strings.Join(parts, " + "),
		float64(a.selfSum())/1e3/ops, float64(a.unattributed)/1e3/ops)
}
