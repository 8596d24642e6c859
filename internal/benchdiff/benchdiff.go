// Package benchdiff compares two bench-trajectory JSONL files (the
// BENCH_*.json format rhbench -json emits) and reports per-point
// regressions on the simulated-machine metrics. CI runs it via
// cmd/benchdiff against the committed BENCH_smoke.json to catch
// performance cliffs: the comparison is on architectural metrics
// (operations per thousand simulated accesses), which measure the
// simulated machine rather than the host, so it is stable across runner
// hardware — only a real change in the engines' access behavior moves it.
// At one thread nothing else moves it, so those points must match the
// baseline exactly, and a gain fails too until the baseline is regenerated.
package benchdiff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Row is the subset of a trajectory line the comparison reads.
type Row struct {
	Experiment      string  `json:"experiment"`
	Workload        string  `json:"workload"`
	Engine          string  `json:"engine"`
	Threads         int     `json:"threads"`
	Ops             uint64  `json:"ops"`
	OpsPerKAccess   float64 `json:"ops_per_kacc"`
	OpsPerKInterval float64 `json:"ops_per_kinterval"`
}

// Key identifies one measured point across files.
func (r Row) Key() string {
	return fmt.Sprintf("%s|%s|%s|t=%d", r.Experiment, r.Workload, r.Engine, r.Threads)
}

// Metric returns the point's comparison metric and its name: the cluster
// scaling metric (ops per thousand critical-path accesses) when the run
// produced one, else the single-System architectural metric (ops per
// thousand accesses).
func (r Row) Metric() (float64, string) {
	if r.OpsPerKInterval > 0 {
		return r.OpsPerKInterval, "ops_per_kinterval"
	}
	return r.OpsPerKAccess, "ops_per_kacc"
}

// ParseRows reads a JSONL trajectory stream. Blank lines are skipped; a
// malformed line is an error (a truncated trajectory should fail loudly,
// not silently narrow the comparison).
func ParseRows(r io.Reader) ([]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var rows []Row
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(b, &row); err != nil {
			return nil, fmt.Errorf("benchdiff: line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	return rows, nil
}

// Regression is one point that failed the comparison: its fresh metric
// fell below the committed baseline by more than the threshold, or, at one
// thread, differs from the baseline at all.
type Regression struct {
	Key    string
	Metric string // which metric compared: ops_per_kinterval or ops_per_kacc
	Base   float64
	Fresh  float64
	Drop   float64 // fractional drop, e.g. 0.31 for -31%; negative for a rise
}

func (rg Regression) String() string {
	if rg.Drop < 0 {
		return fmt.Sprintf("%s: %s %v -> %v (+%.2f%%): baseline stale: regenerate",
			rg.Key, rg.Metric, rg.Base, rg.Fresh, -100*rg.Drop)
	}
	return fmt.Sprintf("%s: %s %v -> %v (-%.2f%%)",
		rg.Key, rg.Metric, rg.Base, rg.Fresh, 100*rg.Drop)
}

// Compare evaluates fresh against base: every base point must appear in
// fresh (a vanished point is a regression to zero). A single-thread point
// must reproduce its metric exactly, in either direction: the simulated
// counts of one thread are functions of the seed, so any difference is a
// change in the engines' access behavior, and a gain the baseline does not
// record would hide a later loss inside the threshold. A point at more
// threads may fall no more than threshold below the baseline, since it also
// depends on how the host interleaves the workers; threshold is fractional
// (0.25 = tolerate a 25% drop). Points only in fresh are ignored — adding
// coverage is never a failure. Returned regressions are sorted by severity,
// rises last.
func Compare(base, fresh []Row, threshold float64) []Regression {
	freshByKey := map[string]Row{}
	for _, r := range fresh {
		freshByKey[r.Key()] = r
	}
	var out []Regression
	for _, b := range base {
		bm, name := b.Metric()
		if bm <= 0 {
			continue // nothing measurable to regress from
		}
		f, ok := freshByKey[b.Key()]
		if !ok {
			out = append(out, Regression{Key: b.Key(), Metric: name, Base: bm, Fresh: 0, Drop: 1})
			continue
		}
		fm, _ := f.Metric()
		if b.Threads == 1 && fm == bm || b.Threads != 1 && fm >= (1-threshold)*bm {
			continue
		}
		out = append(out, Regression{
			Key: b.Key(), Metric: name, Base: bm, Fresh: fm, Drop: (bm - fm) / bm,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Drop > out[j].Drop })
	return out
}
