package main

import (
	"fmt"
	"math"
	"os"
)

// usable refuses a run whose numbers are not the system's own: a failed
// output check or operation, a generator that fell behind, a leader timeout
// on a fault-free cluster, or a write-only serve workload over its latency
// limit. A single run (--workload) reports such numbers and flags them; the
// modes that compare or summarise runs stop on them.
func usable(w workload, res *result) error {
	switch {
	case !res.Correct || res.Failed > 0:
		return fmt.Errorf("an output check or an operation failed")
	case res.Invalid:
		return fmt.Errorf("the run is invalid (generator-bound or disturbed)")
	case w.latencyLimited() && res.Metrics["commit_p95_ms"] > latencyLimitMs:
		return fmt.Errorf("commit_p95_ms %.1f is over the latency limit of %d ms", res.Metrics["commit_p95_ms"], latencyLimitMs)
	}
	return nil
}

// runEverything is the human entry point: each workload untraced, then
// traced, with the tracing overhead derived from the pair.
func runEverything(e env, opt runOptions) error {
	for _, w := range workloads {
		opt.traced = false
		plain, err := runWorkload(e, w, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printReport(w, opt, plain)
		opt.traced = true
		traced, err := runWorkload(e, w, opt)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		printReport(w, opt, traced)
		if !w.simulated() {
			fmt.Printf("  %-34s %14.4f ratio\n", "obs.traced_over_untraced_p50",
				traced.Metrics["obs.traced_commit_p50_ms"]/plain.Metrics["commit_p50_ms"])
		}
		if w.latencyLimited() {
			fmt.Printf("  latency limit: commit_p95_ms %.1f <= %d\n", plain.Metrics["commit_p95_ms"], latencyLimitMs)
		}
		if err := usable(w, plain); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := usable(w, traced); err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
	}
	return nil
}

// runsPerSet is how many runs of each workload make one set; sets are
// compared by their medians, as the acceptance check compares them.
const runsPerSet = 5

// compareSets makes n sets of untraced runs and reports, per workload and
// end-to-end metric, the median and quartiles over all runs and the largest
// relative gap between two sets' medians. It fails when a gap exceeds the
// metric's bound: sets of the same code must agree before the bound can
// judge a change. A run that is invalid three times over, or not correct
// once, ends the comparison.
func compareSets(e env, opt runOptions, n int) error {
	if n < 2 {
		return fmt.Errorf("-compare needs -sets 2 or more")
	}
	opt.traced = false
	type series struct {
		runs    []float64 // every run, set after set
		medians []float64 // one per set
	}
	values := map[string]map[string]*series{} // workload -> metric
	for _, w := range workloads {
		values[w.Name] = map[string]*series{}
		for _, m := range endToEnd {
			values[w.Name][m.Name] = &series{}
		}
	}
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			for run := 0; run < runsPerSet; run++ {
				o := opt
				o.seed = opt.seed + int64(run)
				if !w.simulated() {
					// Fresh seeds in every set, as repeat runs would have; the
					// simulated workload reuses its seeds and must repeat exactly.
					o.seed += int64(set * runsPerSet)
				}
				res, err := runWorkload(e, w, o)
				// An invalid run says something about the box, not the
				// system: its numbers are dropped and the run is made again.
				for again := 0; again < 2 && err == nil && res.Invalid && res.Correct && res.Failed == 0; again++ {
					fmt.Fprintf(os.Stderr, "set %d, %s, seed %d: invalid run dropped and repeated: %v\n", set, w.Name, o.seed, res.Notes)
					res, err = runWorkload(e, w, o)
				}
				if err == nil {
					if err = usable(w, res); err != nil {
						printReport(w, o, res)
					}
				}
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", set, w.Name, o.seed, err)
				}
				for _, m := range endToEnd {
					s := values[w.Name][m.Name]
					s.runs = append(s.runs, res.Metrics[m.Name])
				}
			}
			for _, m := range endToEnd {
				s := values[w.Name][m.Name]
				s.medians = append(s.medians, median(s.runs[set*runsPerSet:]))
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", set+1, n, w.Name)
		}
	}
	failed := 0
	fmt.Printf("%-14s %-16s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "gap", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			s := values[w.Name][m.Name]
			q1, q3 := quartiles(s.runs)
			gap := relativeGap(s.medians)
			flag := ""
			if gap > m.Bound {
				flag = "  EXCEEDS BOUND"
				failed++
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %12.4f %7.2f%% %7.2f%%%s\n",
				w.Name, m.Name, median(s.runs), q1, q3, gap*100, m.Bound*100, flag)
		}
		if w.simulated() {
			for _, name := range []string{"commit_p50_ms", "commit_p95_ms", "throughput_tx_s"} {
				runs := values[w.Name][name].runs
				for i := runsPerSet; i < len(runs); i++ {
					if runs[i] != runs[i%runsPerSet] {
						fmt.Printf("%-14s %-16s differs between sets with equal seeds\n", w.Name, name)
						failed++
						break
					}
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) moved between sets of the same code by more than their bound", failed)
	}
	return nil
}

// relativeGap is the largest distance between two values as a share of the
// smaller one.
func relativeGap(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if len(v) == 0 || lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}
