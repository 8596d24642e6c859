package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// runChild runs one workload in a fresh process of this same binary, so
// runs cannot share a heap, and returns the result it printed last.
func runChild(name string, cfg config, echo bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.timed/time.Second)), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	if echo {
		os.Stdout.Write(stdout.Bytes())
	}
	if runErr != nil {
		return res, fmt.Errorf("%s seed %d: %w", name, cfg.seed, runErr)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// quartiles returns the three cut points statistics.quantiles(v, n=4)
// gives in Python (the exclusive method), which is what the bounds are
// judged by.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runSelfcheck runs two sets of k runs of each workload, interleaved
// A1 B1 A2 B2 …, run i of both sets on seed+i, and compares the sets'
// medians per end-to-end metric against the metric's bound: the same code
// must agree with itself before it can judge a change. It returns the exit
// code.
func runSelfcheck(k int, cfg config) int {
	if k < 2 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs at least 2 runs per set")
		return 2
	}
	breaches := 0
	fmt.Printf("%-13s %-19s %14s %14s %8s %7s %8s\n", "workload", "metric", "median A", "median B", "gap", "bound", "spread A")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			var kacc [2]float64
			for s := range sets {
				res, err := runChild(w.name, c, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				kacc[s] = res.Metrics["ops_per_kacc"].Value
			}
			if exactWorkloads[w.name] && kacc[0] != kacc[1] {
				fmt.Printf("%-13s ops_per_kacc differs on seed %d: %v vs %v  BREACH (must repeat exactly)\n",
					w.name, c.seed, kacc[0], kacc[1])
				breaches++
			}
		}
		for _, d := range endToEnd {
			q1, a, q3 := quartiles(sets[0][d.name])
			_, b, _ := quartiles(sets[1][d.name])
			gap := (b - a) / a // positive: B reads higher
			verdict := ""
			if gap > d.bound || gap < -d.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-13s %-19s %14.4f %14.4f %+7.2f%% %6.0f%% %7.2f%%%s\n",
				w.name, d.name, a, b, 100*gap, 100*d.bound, 100*(q3-q1)/a, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("selfcheck: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return 0
}
