// Command hammerhead-benchmark is the repository's one benchmark: four
// workloads, the paper's axes and the POST -> commit path measured from
// outside the system, and a per-layer budget from a second, traced run.
//
//	bash bench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                    # every workload, untraced then traced
//	bash bench/run.sh -sets 2 -compare   # do repeat sets agree within the bounds?
//
// See bench/README.md for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

const defaultSeconds = 20

func main() {
	var (
		rootDir  = flag.String("root", "", "repository checkout (default: the nearest parent holding BENCHMARK.json)")
		name     = flag.String("workload", "", "one workload by name; empty runs them all, untraced then traced")
		seed     = flag.Int64("seed", 1, "seeds keys, values, transaction IDs, validator keys and the simulator")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window in seconds (sim-faults: 6 virtual seconds each)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		sets     = flag.Int("sets", 1, "with -compare: how many sets of untraced runs to make (5 runs of every workload each)")
		compare  = flag.Bool("compare", false, "run -sets sets and fail if the median of any end-to-end metric moves between sets by more than its bound")
		scheme   = flag.String("scheme", "ed25519", "signature scheme for the serve-* committees")
		simN     = flag.Int("sim-n", 50, "sim-faults committee size ((n-1)/3 crashed from genesis)")
		spec     = flag.Bool("print-spec", false, "print BENCHMARK.json as the runner defines it and exit")
		simSpecs = flag.String("sim-child", "", "internal: run these simulated scenarios and print their results")
	)
	flag.Parse()
	if *simSpecs != "" {
		exitOn(simChild(*simSpecs))
		return
	}
	if *spec {
		out, err := benchmarkJSON(defaultSeconds)
		exitOn(err)
		os.Stdout.Write(out)
		return
	}
	if *seconds < 1 || *seconds > 60 || flag.NArg() > 0 {
		exitOn(fmt.Errorf("usage: -seconds takes 1..60 and there are no positional arguments"))
	}
	e, err := findRoot(*rootDir)
	exitOn(err)
	opt := runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, scheme: *scheme, simN: *simN}

	// A signal must not leave validators behind: runs register their
	// clusters and the handler stops them before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopLiveClusters()
		os.RemoveAll(filepath.Join(e.buildDir(), "run"))
		os.Exit(130)
	}()

	switch {
	case *compare:
		exitOn(compareSets(e, opt, *sets))
	case *name == "":
		exitOn(runEverything(e, opt))
	default:
		w, ok := workloadByName(*name)
		if !ok {
			exitOn(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(e, w, opt)
		exitOn(err)
		printReport(w, opt, res)
		printResultLine(res, opt.traced)
		if !res.Correct || res.Failed > 0 {
			os.Exit(2)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot locates the checkout: the benchmark builds the system from the
// sources around it and keeps every file it writes inside.
func findRoot(dir string) (env, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return env{}, err
		}
		for dir = wd; ; dir = filepath.Dir(dir) {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				break
			}
			if dir == filepath.Dir(dir) {
				return env{}, fmt.Errorf("no BENCHMARK.json above %s; pass -root", wd)
			}
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return env{}, err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "hammerhead-node")); err != nil {
		return env{}, fmt.Errorf("%s does not hold the system's sources (cmd/hammerhead-node): %w", abs, err)
	}
	return env{root: abs}, nil
}

func runWorkload(e env, w workload, opt runOptions) (*result, error) {
	if w.simulated() {
		return runSim(opt)
	}
	return runServe(e, w, opt)
}

// metricsFor lists the rows a run reports: end-to-end with tracing off,
// per-layer with tracing on.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResultLine writes the one machine-readable line that ends a run.
func printResultLine(res *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range metricsFor(traced) {
		out.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	exitOn(err)
	fmt.Println(string(line))
}

// printReport writes every metric the run produced by name and unit, the
// sample counts behind the percentiles, and anything a check had to say.
func printReport(w workload, opt runOptions, res *result) {
	f := os.Stdout
	mode := "untraced (end-to-end)"
	if opt.traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(f, "== %s  seed=%d  seconds=%d  %s ==\n", w.Name, opt.seed, opt.seconds, mode)
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range group {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(f, "  %-34s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	var counts []string
	for name, n := range res.Samples {
		counts = append(counts, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(counts)
	fmt.Fprintf(f, "  samples: %s\n", strings.Join(counts, " "))
	fmt.Fprintf(f, "  operations: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintf(f, "  ! %s\n", n)
	}
}
