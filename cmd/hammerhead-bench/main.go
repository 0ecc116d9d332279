// Command hammerhead-bench regenerates every table and figure of the
// paper's evaluation on the simulated 13-region deployment, plus ablations
// (epoch length, scoring rule) and recovery scenarios. Each experiment prints
// a paper-style series. The regression benchmark is bench/ (`bash
// bench/run.sh`), not this command.
//
// Usage:
//
//	hammerhead-bench -experiment fig1                 # Figure 1 (faultless)
//	hammerhead-bench -experiment fig2                 # Figure 2 (max faults)
//	hammerhead-bench -experiment incident             # §1 incident table
//	hammerhead-bench -experiment utilization          # Lemma 6 measurement
//	hammerhead-bench -experiment recovery             # crash + reintegration
//	hammerhead-bench -experiment ablation-epoch       # epoch length sweep
//	hammerhead-bench -experiment ablation-scoring     # votes vs Shoal rule
//	hammerhead-bench -experiment snapshot-catchup     # state-sync recovery beyond the GC horizon
//	hammerhead-bench -experiment crash-restart        # full-committee SIGKILL + WAL restart + rejoin
//	hammerhead-bench -experiment scheduler            # byzantine leaders: round-robin vs reputation (fails on an inverted payoff)
//	hammerhead-bench -experiment all
//	  -sizes 10,50,100  -loads 1000,2000,3000,4000  -duration 60s -warmup 30s -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hammerhead"
	"hammerhead/internal/core"
)

type benchConfig struct {
	experiment string
	sizes      []int
	loads      []float64
	duration   time.Duration
	warmup     time.Duration
	seed       int64
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hammerhead-bench:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hammerhead-bench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (benchConfig, error) {
	fs := flag.NewFlagSet("hammerhead-bench", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "fig1|fig2|incident|utilization|recovery|ablation-epoch|ablation-scoring|snapshot-catchup|crash-restart|scheduler|all")
	sizes := fs.String("sizes", "10,50,100", "comma-separated committee sizes")
	loads := fs.String("loads", "1000,2000,3000,4000", "comma-separated offered loads (tx/s)")
	duration := fs.Duration("duration", 60*time.Second, "simulated run length per data point")
	warmup := fs.Duration("warmup", 30*time.Second, "warmup excluded from statistics")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return benchConfig{}, err
	}
	cfg := benchConfig{experiment: *exp, duration: *duration, warmup: *warmup, seed: *seed}
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return cfg, fmt.Errorf("bad size %q: %w", s, err)
		}
		cfg.sizes = append(cfg.sizes, n)
	}
	for _, s := range strings.Split(*loads, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return cfg, fmt.Errorf("bad load %q: %w", s, err)
		}
		cfg.loads = append(cfg.loads, l)
	}
	return cfg, nil
}

func run(cfg benchConfig) error {
	experiments := map[string]func(benchConfig) error{
		"fig1":             runFigure1,
		"fig2":             runFigure2,
		"incident":         runIncident,
		"utilization":      runUtilization,
		"recovery":         runRecovery,
		"ablation-epoch":   runAblationEpoch,
		"ablation-scoring": runAblationScoring,
		"snapshot-catchup": runSnapshotCatchUp,
		"crash-restart":    runCrashRestart,
		"scheduler":        runScheduler,
	}
	if cfg.experiment == "all" {
		for _, name := range []string{"fig1", "fig2", "incident", "utilization", "recovery", "ablation-epoch", "ablation-scoring", "snapshot-catchup", "crash-restart", "scheduler"} {
			if err := experiments[name](cfg); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experiments[cfg.experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", cfg.experiment)
	}
	return fn(cfg)
}

func newScenario(cfg benchConfig, m hammerhead.Mechanism, n, faults int, load float64) hammerhead.Scenario {
	s := hammerhead.NewScenario(m, n, faults, load)
	s.Duration = cfg.duration
	s.Warmup = cfg.warmup
	s.Seed = cfg.seed
	return s
}

func printHeader(title string) {
	fmt.Printf("\n==== %s ====\n", title)
	fmt.Printf("%-12s %4s %7s %10s %10s %9s %9s %9s %8s %9s\n",
		"mechanism", "n", "faults", "load tx/s", "tput tx/s", "mean s", "p50 s", "p95 s", "skipped", "timeouts")
}

func printRow(r hammerhead.ExperimentResult) {
	s := r.Scenario
	fmt.Printf("%-12s %4d %7d %10.0f %10.0f %9.2f %9.2f %9.2f %8d %9d\n",
		s.Mechanism, s.N, s.Faults, s.LoadTxPerSec, r.ThroughputTxPerSec,
		r.Latency.Mean.Seconds(), r.Latency.P50.Seconds(), r.Latency.P95.Seconds(),
		r.SkippedAnchors, r.LeaderTimeouts)
}

// runFigure1 regenerates Figure 1: latency vs throughput, no faults.
func runFigure1(cfg benchConfig) error {
	printHeader("Figure 1: latency vs throughput, faultless")
	for _, n := range cfg.sizes {
		for _, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
			for _, load := range cfg.loads {
				res, err := hammerhead.RunExperiment(newScenario(cfg, m, n, 0, load))
				if err != nil {
					return err
				}
				printRow(res)
			}
		}
	}
	return nil
}

// runFigure2 regenerates Figure 2: latency vs throughput under the maximum
// tolerable crash faults.
func runFigure2(cfg benchConfig) error {
	printHeader("Figure 2: latency vs throughput, maximum crash faults")
	for _, n := range cfg.sizes {
		faults := (n - 1) / 3
		for _, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
			for _, load := range cfg.loads {
				res, err := hammerhead.RunExperiment(newScenario(cfg, m, n, faults, load))
				if err != nil {
					return err
				}
				printRow(res)
			}
		}
	}
	return nil
}

// runIncident reproduces the §1 production incident: 100 validators at low
// load (130 tx/s), 10% becoming slow mid-run, measured as p50/p95 before,
// during and after the degradation.
func runIncident(cfg benchConfig) error {
	fmt.Printf("\n==== Incident (paper §1): 10%% of validators degrade mid-run ====\n")
	total := cfg.duration * 3
	for _, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
		s := newScenario(cfg, m, 100, 0, 130)
		s.Duration = total
		s.Warmup = 0
		s.SlowCount = 10
		s.SlowFactor = 6
		s.SlowFrom = cfg.duration
		s.SlowUntil = 2 * cfg.duration
		s.Windows = []time.Duration{cfg.duration, 2 * cfg.duration}
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		labels := []string{"before", "during", "after"}
		for i, w := range res.WindowLatencies {
			fmt.Printf("%-12s window=%-7s p50=%5.2fs p95=%5.2fs (n=%d)\n",
				m, labels[i], w.P50.Seconds(), w.P95.Seconds(), w.Count)
		}
		fmt.Printf("%-12s schedule switches=%d excluded=%v\n", m, res.ScheduleSwitches, res.Excluded)
	}
	return nil
}

// runUtilization measures Lemma 6: anchor rounds lost to crashed leaders.
func runUtilization(cfg benchConfig) error {
	fmt.Printf("\n==== Leader Utilization (Lemma 6): skipped anchors after crashes ====\n")
	const n, faults = 20, 6
	for _, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
		s := newScenario(cfg, m, n, faults, 200)
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s n=%d faults=%d rounds=%d skipped_anchors=%d leader_timeouts=%d switches=%d excluded=%v\n",
			m, n, faults, res.LastOrderedRound, res.SkippedAnchors, res.LeaderTimeouts,
			res.ScheduleSwitches, res.Excluded)
	}
	fmt.Println("bound check: HammerHead skips must be O(T)·f, confined to pre-exclusion epochs;")
	fmt.Println("Bullshark keeps skipping the crashed leaders' slots for the whole run.")
	return nil
}

// runRecovery demonstrates the §1 reintegration story: crashed validators
// are swapped out, then recover and regain their slots.
func runRecovery(cfg benchConfig) error {
	fmt.Printf("\n==== Recovery (extension A3): crash at T/4, recover at T/2 ====\n")
	s := newScenario(cfg, hammerhead.HammerHead, 10, 2, 200)
	s.Duration = 4 * cfg.duration
	s.Warmup = 0
	s.CrashAt = cfg.duration
	s.RecoverAt = 2 * cfg.duration
	// Keep the outage within the GC horizon so peers still hold the history
	// the recovering validators must fetch (beyond it, checkpoint state-sync
	// would be required — out of scope, as in Narwhal itself).
	s.GCDepthRounds = 100000
	res, err := hammerhead.RunExperiment(s)
	if err != nil {
		return err
	}
	fmt.Printf("run=%v crash_at=%v recover_at=%v\n", s.Duration, s.CrashAt, s.RecoverAt)
	fmt.Printf("schedule switches=%d final_excluded=%v (empty means reintegrated)\n",
		res.ScheduleSwitches, res.Excluded)
	fmt.Printf("tput=%.0f tx/s mean_latency=%.2fs skipped=%d\n",
		res.ThroughputTxPerSec, res.Latency.Mean.Seconds(), res.SkippedAnchors)
	return nil
}

// runAblationEpoch sweeps the schedule-change frequency (paper §7 leaves
// adaptive variants open; Sui mainnet uses 300 commits, the paper's bench 10).
func runAblationEpoch(cfg benchConfig) error {
	fmt.Printf("\n==== Ablation A1: schedule epoch length (commits per schedule) ====\n")
	const n, faults = 20, 6
	for _, commits := range []int{2, 5, 10, 30, 100} {
		s := newScenario(cfg, hammerhead.HammerHead, n, faults, 200)
		s.EpochCommits = commits
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		fmt.Printf("epoch=%3d commits: mean=%5.2fs p95=%5.2fs skipped=%3d switches=%d\n",
			commits, res.Latency.Mean.Seconds(), res.Latency.P95.Seconds(),
			res.SkippedAnchors, res.ScheduleSwitches)
	}
	return nil
}

// runSnapshotCatchUp measures state-sync recovery: a validator crashes
// early, the committee checkpoints on, and the absentee rejoins far beyond
// the GC horizon — possible only through a snapshot install.
func runSnapshotCatchUp(cfg benchConfig) error {
	fmt.Printf("\n==== Snapshot catch-up: recovery beyond the GC horizon (default GCDepth) ====\n")
	load := 300.0
	if len(cfg.loads) > 0 {
		load = cfg.loads[0]
	}
	s := hammerhead.NewSnapshotCatchUpScenario(hammerhead.Bullshark, 4, 1, load)
	s.Duration = 3 * cfg.duration
	s.Warmup = cfg.warmup
	s.CrashAt = s.Duration / 20
	s.RecoverAt = s.Duration * 7 / 10
	s.Seed = cfg.seed
	res, err := hammerhead.RunExperiment(s)
	if err != nil {
		return err
	}
	fmt.Printf("run=%v crash_at=%v recover_at=%v load=%.0f tx/s\n", s.Duration, s.CrashAt, s.RecoverAt, load)
	fmt.Printf("snapshot_installs=%d state_roots_agree=%v min_applied_seq=%d\n",
		res.SnapshotInstalls, res.StateRootsAgree, res.MinAppliedSeq)
	fmt.Printf("tput=%.0f tx/s mean_latency=%.2fs last_ordered_round=%d\n",
		res.ThroughputTxPerSec, res.Latency.Mean.Seconds(), res.LastOrderedRound)
	if res.SnapshotInstalls == 0 {
		fmt.Println("WARNING: no snapshot installs — outage did not exceed the GC horizon at this duration")
	}
	return nil
}

// runCrashRestart measures the correlated crash-restart scenario: the whole
// committee is SIGKILLed mid-run, restarts from WALs, and recovers through
// the crash-rejoin handshake. Headline number: time from the restart instant
// to the first fresh post-crash commit.
func runCrashRestart(cfg benchConfig) error {
	fmt.Printf("\n==== Crash-restart: full-committee SIGKILL, WAL restart, rejoin handshake ====\n")
	load := 300.0
	if len(cfg.loads) > 0 {
		load = cfg.loads[0]
	}
	for _, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
		s := hammerhead.NewCrashRestartScenario(m, 4, load)
		s.Duration = 3 * cfg.duration
		s.Warmup = cfg.warmup
		s.KillAllAt = s.Duration / 3
		s.Seed = cfg.seed
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s run=%v kill_at=%v downtime=%v restarts=%d\n",
			m, s.Duration, s.KillAllAt, s.RestartDowntime, res.Restarts)
		recovered := "NEVER (wedged)"
		if res.TimeToFirstPostCrashCommit > 0 {
			recovered = res.TimeToFirstPostCrashCommit.String()
		}
		fmt.Printf("%-12s time_to_first_post_crash_commit=%s state_roots_agree=%v min_applied_seq=%d\n",
			m, recovered, res.StateRootsAgree, res.MinAppliedSeq)
		fmt.Printf("%-12s tput=%.0f tx/s last_ordered_round=%d\n",
			m, res.ThroughputTxPerSec, res.LastOrderedRound)
	}
	return nil
}

// runScheduler is the reputation scheduler's payoff measurement: the
// byzantine-leader scenario (one crashed, one selectively-withholding, one
// lagging leader in a committee of 10) under both mechanisms. Round-robin
// keeps re-electing the faulty trio and eats a leader timeout on most of
// their anchor rounds; HammerHead scores them out after a few epochs. Fails
// unless HammerHead's mean commit latency beats the baseline.
func runScheduler(cfg benchConfig) error {
	fmt.Printf("\n==== Scheduler payoff: byzantine leaders, round-robin vs reputation ====\n")
	load := 200.0
	if len(cfg.loads) > 0 {
		load = cfg.loads[0]
	}
	printHeader("commit latency under 1 crashed + 1 withholding + 1 lagging leader (n=10)")
	var meanByMech [2]float64
	for i, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
		s := hammerhead.NewByzantineLeaderScenario(m, 10, load)
		s.Duration = 3 * cfg.duration
		s.Warmup = s.Duration / 3 // scoring needs epochs to react; compare steady state
		s.Seed = cfg.seed
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		printRow(res)
		fmt.Printf("%-12s schedule switches=%d excluded=%v\n", m, res.ScheduleSwitches, res.Excluded)
		meanByMech[i] = res.Latency.Mean.Seconds()
	}
	if meanByMech[1] >= meanByMech[0] {
		return fmt.Errorf("scheduler payoff inverted: hammerhead mean %.2fs >= bullshark %.2fs",
			meanByMech[1], meanByMech[0])
	}
	fmt.Printf("hammerhead mean commit latency improvement: %.0f%%\n",
		100*(meanByMech[0]-meanByMech[1])/meanByMech[0])
	return nil
}

// runAblationScoring compares the paper's vote-based scoring against the
// Shoal-style commit/skip rule (paper §7 related-work discussion).
func runAblationScoring(cfg benchConfig) error {
	fmt.Printf("\n==== Ablation A2: scoring rule (HammerHead votes vs Shoal commit/skip) ====\n")
	const n, faults = 20, 6
	for _, rule := range []core.ScoringRule{core.ScoringVotes, core.ScoringShoal} {
		s := newScenario(cfg, hammerhead.HammerHead, n, faults, 200)
		s.Scoring = rule
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		fmt.Printf("scoring=%-6s mean=%5.2fs p95=%5.2fs skipped=%3d switches=%d excluded=%v\n",
			rule, res.Latency.Mean.Seconds(), res.Latency.P95.Seconds(),
			res.SkippedAnchors, res.ScheduleSwitches, res.Excluded)
	}
	return nil
}
