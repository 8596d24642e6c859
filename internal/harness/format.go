package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// JSONResult is one Result rendered machine-readable — the schema of the
// BENCH_*.json trajectory files rhbench's -json flag emits (one JSON object
// per line).
type JSONResult struct {
	Experiment      string  `json:"experiment"`
	Workload        string  `json:"workload"`
	Engine          string  `json:"engine"`
	Threads         int     `json:"threads"`
	Ops             uint64  `json:"ops"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	OpsPerKAccess   float64 `json:"ops_per_kacc"`
	OpsPerKInterval float64 `json:"ops_per_kinterval,omitempty"`
	AbortsPerCommit float64 `json:"aborts_per_commit"`
	// Counters embeds the run's structured observations (the flattened
	// obs.Snapshot plus harness.* workload counters); absent for the raw
	// structure workloads, which have none.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// WriteResultsJSON emits one JSON line per result (JSONL: trivially
// appendable and `jq`-able), tagged with the experiment id so a whole
// rhbench invocation lands in one trajectory file.
func WriteResultsJSON(w io.Writer, experiment string, results []Result) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		err := enc.Encode(JSONResult{
			Experiment:      experiment,
			Workload:        r.Workload,
			Engine:          r.Engine,
			Threads:         r.Threads,
			Ops:             r.Ops,
			ElapsedSec:      r.Elapsed.Seconds(),
			OpsPerSec:       r.Throughput,
			OpsPerKAccess:   r.OpsPerKAccess,
			OpsPerKInterval: r.OpsPerKInterval,
			AbortsPerCommit: r.Stats.AbortRatio(),
			Counters:        r.Counters,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// digest renders the human view of a run's counters: every harness.*
// observation of the workload, and what is nonzero of the store occupancy,
// the 2PC and log counters and the planner's picks (histogram parts
// aside). The JSON rows carry the full map; this is the line a reader of
// the terminal output gets.
func digest(counters map[string]int64) string {
	var parts []string
	for name, v := range counters {
		if strings.HasSuffix(name, ".count") || strings.HasSuffix(name, ".sum") {
			continue
		}
		for _, p := range []string{"harness.", "store.", "cluster.", "wal.", "table.planner.picks"} {
			if strings.HasPrefix(name, p) && (v != 0 || p == "harness.") {
				parts = append(parts, fmt.Sprintf("%s=%d", name, v))
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// PrintThroughputSeries renders thread-sweep results as one column per
// engine and one row per thread count — the shape of the paper's throughput
// graphs (total operations versus number of threads).
func PrintThroughputSeries(w io.Writer, title string, results []Result) {
	fmt.Fprintf(w, "# %s\n", title)
	engines := engineOrder(results)
	threads := threadOrder(results)
	byKey := map[string]Result{}
	for _, r := range results {
		byKey[key(r.Engine, r.Threads)] = r
	}
	printGrid := func(w io.Writer, engines []string, threads []int, metric func(Result) float64) {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, e := range engines {
			fmt.Fprintf(tw, "\t%s", e)
		}
		fmt.Fprintln(tw)
		for _, t := range threads {
			fmt.Fprintf(tw, "%d", t)
			for _, e := range engines {
				if r, ok := byKey[key(e, t)]; ok {
					fmt.Fprintf(tw, "\t%.2f", metric(r))
				} else {
					fmt.Fprint(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	fmt.Fprintln(w, "## committed ops per 1000 simulated shared accesses (architectural metric)")
	printGrid(w, engines, threads, func(r Result) float64 { return r.OpsPerKAccess })
	cluster := false
	for _, r := range results {
		if r.OpsPerKInterval > 0 {
			cluster = true
			break
		}
	}
	if cluster {
		fmt.Fprintln(w, "## committed ops per 1000 critical-path accesses (busiest System; cluster scaling metric)")
		printGrid(w, engines, threads, func(r Result) float64 { return r.OpsPerKInterval })
	}
	fmt.Fprintln(w, "## committed ops per second (host wall clock; measures the simulator)")
	printGrid(w, engines, threads, func(r Result) float64 { return r.Throughput })
	fmt.Fprintln(w, "# abort ratios:")
	for _, e := range engines {
		last := byKey[key(e, threads[len(threads)-1])]
		fmt.Fprintf(w, "#   %-16s abort-ratio=%.3f at %d threads (%s)\n",
			e, last.Stats.AbortRatio(), last.Threads, last.Stats.String())
	}
	header := false
	for _, e := range engines {
		if d := digest(byKey[key(e, threads[len(threads)-1])].Counters); d != "" {
			if !header {
				fmt.Fprintf(w, "# counters (at %d threads):\n", threads[len(threads)-1])
				header = true
			}
			fmt.Fprintf(w, "#   %-16s %s\n", e, d)
		}
	}
}

// PrintSpeedupBars renders single-thread results normalized to a baseline
// engine (the paper's single-thread speedup chart, normalized to TL2). Both
// the architectural (per-access) and wall-clock speedups are shown; shape
// claims use the former.
func PrintSpeedupBars(w io.Writer, title, baseline string, results []Result) {
	fmt.Fprintf(w, "# %s (normalized to %s)\n", title, baseline)
	var baseWall, baseArch float64
	for _, r := range results {
		if r.Engine == baseline {
			baseWall = r.Throughput
			baseArch = r.OpsPerKAccess
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tarch-speedup\twall-speedup\tops/kacc\tops/sec")
	for _, r := range results {
		spw, spa := 0.0, 0.0
		if baseWall > 0 {
			spw = r.Throughput / baseWall
		}
		if baseArch > 0 {
			spa = r.OpsPerKAccess / baseArch
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.0f\n", r.Engine, spa, spw, r.OpsPerKAccess, r.Throughput)
	}
	tw.Flush()
}

// PrintBreakdownTable renders the Figure 2 breakdown tables: per-engine
// phase-time percentages and operation counters.
func PrintBreakdownTable(w io.Writer, title string, results []Result) {
	fmt.Fprintf(w, "# %s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tread%\twrite%\tcommit%\tprivate%\tinterTX%\treads\twrites\taborts\tcommit-ratio")
	for _, r := range results {
		b := r.Breakdown
		if b == nil {
			b = &Breakdown{}
		}
		ratio := 1.0
		if c := r.Stats.Commits(); c > 0 {
			ratio = float64(c+r.Stats.Aborts()) / float64(c)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\t%d\t%.6f\n",
			r.Engine, b.ReadPct, b.WritePct, b.CommitPct, b.PrivatePct, b.InterTxPct,
			r.Stats.Reads, r.Stats.Writes, r.Stats.Aborts(), ratio)
	}
	tw.Flush()
}

// PrintFig3c renders the Random Array speedup matrix: one row per write
// percentage, one column per transaction length, matching the paper's
// right-hand Figure 3 graph.
func PrintFig3c(w io.Writer, points []Fig3cPoint) {
	fmt.Fprintln(w, "# 128K Random Array: RH1 Fast speedup vs Standard HyTM")
	lengths := []int{}
	writes := []int{}
	seenL := map[int]bool{}
	seenW := map[int]bool{}
	for _, p := range points {
		if !seenL[p.TxLen] {
			seenL[p.TxLen] = true
			lengths = append(lengths, p.TxLen)
		}
		if !seenW[p.WritePct] {
			seenW[p.WritePct] = true
			writes = append(writes, p.WritePct)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	sort.Ints(writes)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "writes%")
	for _, l := range lengths {
		fmt.Fprintf(tw, "\tlen=%d", l)
	}
	fmt.Fprintln(tw)
	for _, wp := range writes {
		fmt.Fprintf(tw, "%d", wp)
		for _, l := range lengths {
			for _, p := range points {
				if p.TxLen == l && p.WritePct == wp {
					fmt.Fprintf(tw, "\t%.2f", p.Speedup)
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// PrintCapacity renders the capacity-extension experiment.
func PrintCapacity(w io.Writer, points []ExtCapacityPoint, limitLines int) {
	fmt.Fprintf(w, "# Capacity extension: HTM footprint capped at %d lines\n", limitLines)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "txlen\tops/sec\tfast-share\tslow-share\trh2-fallbacks")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%.0f\t%.3f\t%.3f\t%d\n",
			p.TxLen, p.Result.Throughput, p.FastShare, p.SlowShare, p.RH2Fallbacks)
	}
	tw.Flush()
}

// engineOrder returns engines in first-appearance order.
func engineOrder(results []Result) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Engine] {
			seen[r.Engine] = true
			out = append(out, r.Engine)
		}
	}
	return out
}

// threadOrder returns thread counts sorted ascending.
func threadOrder(results []Result) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range results {
		if !seen[r.Threads] {
			seen[r.Threads] = true
			out = append(out, r.Threads)
		}
	}
	sort.Ints(out)
	return out
}

func key(engine string, threads int) string {
	return fmt.Sprintf("%s|%d", engine, threads)
}
