// Command hammerhead-bench regenerates every table and figure of the
// paper's evaluation on the simulated 13-region deployment, plus the
// ablations indexed in DESIGN.md §5. Each experiment prints a paper-style
// series; EXPERIMENTS.md records the outputs against the published numbers.
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
//	hammerhead-bench -experiment executor-replay      # standalone executor on a recorded trace
//	hammerhead-bench -experiment snapshot-catchup     # state-sync recovery beyond the GC horizon
//	hammerhead-bench -experiment crash-restart        # full-committee SIGKILL + WAL restart + rejoin
//	hammerhead-bench -experiment scheduler            # byzantine leaders: round-robin vs reputation, emits BENCH_scheduler.json
//	hammerhead-bench -experiment codec                # gob vs deterministic wire codec, emits BENCH_codec.json
//	hammerhead-bench -experiment client-load          # REAL cluster + RPC gateway + open-loop HTTP load (wall clock)
//	hammerhead-bench -experiment core                 # pinned perf trajectory: verify/pipeline/apply/gateway, emits and gates on BENCH_core.json
//	hammerhead-bench -experiment all
//	  -sizes 10,50,100  -loads 1000,2000,3000,4000  -duration 60s -warmup 30s -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hammerhead"
	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

type benchConfig struct {
	experiment string
	sizes      []int
	loads      []float64
	duration   time.Duration
	warmup     time.Duration
	seed       int64
	tolerance  float64
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
	exp := fs.String("experiment", "all", "fig1|fig2|incident|utilization|recovery|ablation-epoch|ablation-scoring|all")
	sizes := fs.String("sizes", "10,50,100", "comma-separated committee sizes")
	loads := fs.String("loads", "1000,2000,3000,4000", "comma-separated offered loads (tx/s)")
	duration := fs.Duration("duration", 60*time.Second, "simulated run length per data point")
	warmup := fs.Duration("warmup", 30*time.Second, "warmup excluded from statistics")
	seed := fs.Int64("seed", 1, "simulation seed")
	tolerance := fs.Float64("tolerance", 0.5, "core: allowed fractional drift per row vs the committed BENCH_core.json before the gate fails")
	if err := fs.Parse(args); err != nil {
		return benchConfig{}, err
	}
	cfg := benchConfig{experiment: *exp, duration: *duration, warmup: *warmup, seed: *seed, tolerance: *tolerance}
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
		"executor-replay":  runExecutorReplay,
		"snapshot-catchup": runSnapshotCatchUp,
		"crash-restart":    runCrashRestart,
		"scheduler":        runScheduler,
		"codec":            runCodec,
		"client-load":      runClientLoad,
		"core":             runCore,
	}
	if cfg.experiment == "all" {
		for _, name := range []string{"fig1", "fig2", "incident", "utilization", "recovery", "ablation-epoch", "ablation-scoring", "executor-replay", "snapshot-catchup", "crash-restart", "scheduler", "codec"} {
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

// noBatches satisfies engine.BatchProvider for trace replay: the trace's
// certificates already carry their batches.
type noBatches struct{}

func (noBatches) NextBatch(int64, int) *types.Batch { return nil }

// runExecutorReplay drives the execution subsystem standalone: a short
// simulated deployment records validator 0's certificate-insertion trace
// (the same recorder behind the pipeline determinism test), then the trace
// is replayed wall-clock through a fresh serial engine whose commit sink
// feeds an executor — isolating commit-derivation + state-machine apply +
// root chaining + checkpointing from networking entirely.
func runExecutorReplay(cfg benchConfig) error {
	fmt.Printf("\n==== Executor replay: standalone execution over a recorded commit trace ====\n")
	committee, err := hammerhead.NewEqualStakeCommittee(4)
	if err != nil {
		return err
	}
	engCfg := engine.DefaultConfig()
	engCfg.VerifySignatures = false
	engCfg.LeaderTimeout = 500 * time.Millisecond
	engCfg.ResyncInterval = 200 * time.Millisecond

	var trace []*engine.Certificate
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		Committee: committee,
		Engine:    engCfg,
		Latency:   simnet.Uniform{Base: 30 * time.Millisecond, Jitter: 0.2},
		NewScheduler: func(c *types.Committee, d *dag.DAG) (leader.Scheduler, error) {
			return leader.NewRoundRobin(c, 1), nil
		},
		OnInsert: func(node types.ValidatorID, cert *engine.Certificate) {
			if node == 0 {
				trace = append(trace, (&engine.Message{Kind: engine.KindCertificate, Cert: cert}).Clone().Cert)
			}
		},
		Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	// Open-loop KV load so the replay has real transactions to execute.
	load := 2000.0
	if len(cfg.loads) > 0 {
		load = cfg.loads[0]
	}
	interval := time.Duration(float64(time.Second) / load)
	var seq uint64
	var tick func()
	tick = func() {
		if cluster.Sim.Now() >= cfg.duration.Nanoseconds() {
			return
		}
		seq++
		key := []byte(fmt.Sprintf("acct-%05d", seq%10000))
		val := []byte(fmt.Sprintf("balance-%d", seq))
		_ = cluster.SubmitTx(types.ValidatorID(seq%4), types.Transaction{ID: seq, Payload: execution.PutOp(key, val)})
		cluster.Sim.After(interval, tick)
	}
	cluster.Sim.After(interval, tick)
	cluster.Start()
	cluster.Sim.RunFor(cfg.duration)
	if len(trace) == 0 {
		return fmt.Errorf("recorded no certificates")
	}

	// Standalone replay, wall-clock timed.
	exec := execution.NewExecutor(execution.NewKVState(), execution.Config{CheckpointInterval: 32})
	var commits, txs uint64
	d := dag.New(committee)
	kp := crypto0(committee)
	eng, err := engine.New(engine.Params{
		Config:    engCfg,
		Committee: committee,
		Self:      0,
		Keys:      kp,
		Batches:   noBatches{},
		Scheduler: leader.NewRoundRobin(committee, 1),
		DAG:       d,
		Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
			commits++
			txs += uint64(sub.TxCount())
			exec.ApplyCommit(sub)
		}),
	})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, cert := range trace {
		eng.OnMessage(1, &engine.Message{Kind: engine.KindCertificate, Cert: cert}, 0)
	}
	elapsed := time.Since(start)
	snap, err := exec.ForceCheckpoint()
	if err != nil {
		return err
	}
	blob, err := execution.EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d certs -> %d commits, %d txs (%.0fs virtual)\n",
		len(trace), commits, txs, cfg.duration.Seconds())
	fmt.Printf("replay: %v wall  %.0f certs/s  %.0f commits/s  %.0f tx/s\n",
		elapsed, float64(len(trace))/elapsed.Seconds(), float64(commits)/elapsed.Seconds(),
		float64(txs)/elapsed.Seconds())
	fmt.Printf("executor: applied_seq=%d applied_round=%d state_root=%s checkpoints=%d snapshot_bytes=%d\n",
		exec.AppliedSeq(), exec.AppliedRound(), exec.StateRoot(), exec.Checkpoints(), len(blob))
	return nil
}

// crypto0 derives validator 0's (insecure-scheme) keys for replay engines.
func crypto0(*types.Committee) hammerhead.KeyPair {
	pairs, _, err := hammerhead.GenerateKeys("insecure", [32]byte{}, 1)
	if err != nil {
		panic(err)
	}
	return pairs[0]
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

// schedulerBenchRow is one mechanism's measurements in BENCH_scheduler.json.
type schedulerBenchRow struct {
	Mechanism          string   `json:"mechanism"`
	N                  int      `json:"n"`
	Crashed            int      `json:"crashed"`
	Withholding        int      `json:"withholding"`
	Slow               int      `json:"slow"`
	LoadTxPerSec       float64  `json:"load_tx_per_sec"`
	ThroughputTxPerSec float64  `json:"throughput_tx_per_sec"`
	CommitLatencyMeanS float64  `json:"commit_latency_mean_s"`
	CommitLatencyP50S  float64  `json:"commit_latency_p50_s"`
	CommitLatencyP95S  float64  `json:"commit_latency_p95_s"`
	SkippedAnchors     uint64   `json:"skipped_anchors"`
	LeaderTimeouts     uint64   `json:"leader_timeouts"`
	ScheduleSwitches   int      `json:"schedule_switches"`
	Excluded           []uint32 `json:"excluded,omitempty"`
}

// schedulerBench is the BENCH_scheduler.json artifact layout.
type schedulerBench struct {
	Experiment           string              `json:"experiment"`
	DurationS            float64             `json:"duration_s"`
	Seed                 int64               `json:"seed"`
	Rows                 []schedulerBenchRow `json:"rows"`
	LatencyImprovementPc float64             `json:"hammerhead_mean_latency_improvement_pct"`
}

// runScheduler is the reputation scheduler's payoff measurement: the
// byzantine-leader scenario (one crashed, one selectively-withholding, one
// lagging leader in a committee of 10) under both mechanisms. Round-robin
// keeps re-electing the faulty trio and eats a leader timeout on most of
// their anchor rounds; HammerHead scores them out after a few epochs. The
// comparison lands in BENCH_scheduler.json for CI to archive.
func runScheduler(cfg benchConfig) error {
	fmt.Printf("\n==== Scheduler payoff: byzantine leaders, round-robin vs reputation ====\n")
	load := 200.0
	if len(cfg.loads) > 0 {
		load = cfg.loads[0]
	}
	out := schedulerBench{Experiment: "byzantine-leader", Seed: cfg.seed}
	printHeader("commit latency under 1 crashed + 1 withholding + 1 lagging leader (n=10)")
	var meanByMech [2]float64
	for i, m := range []hammerhead.Mechanism{hammerhead.Bullshark, hammerhead.HammerHead} {
		s := hammerhead.NewByzantineLeaderScenario(m, 10, load)
		s.Duration = 3 * cfg.duration
		s.Warmup = s.Duration / 3 // scoring needs epochs to react; compare steady state
		s.Seed = cfg.seed
		out.DurationS = s.Duration.Seconds()
		res, err := hammerhead.RunExperiment(s)
		if err != nil {
			return err
		}
		printRow(res)
		fmt.Printf("%-12s schedule switches=%d excluded=%v\n", m, res.ScheduleSwitches, res.Excluded)
		meanByMech[i] = res.Latency.Mean.Seconds()
		row := schedulerBenchRow{
			Mechanism:          m.String(),
			N:                  s.N,
			Crashed:            s.Faults,
			Withholding:        s.WithholdCount,
			Slow:               s.SlowCount,
			LoadTxPerSec:       s.LoadTxPerSec,
			ThroughputTxPerSec: res.ThroughputTxPerSec,
			CommitLatencyMeanS: res.Latency.Mean.Seconds(),
			CommitLatencyP50S:  res.Latency.P50.Seconds(),
			CommitLatencyP95S:  res.Latency.P95.Seconds(),
			SkippedAnchors:     res.SkippedAnchors,
			LeaderTimeouts:     res.LeaderTimeouts,
			ScheduleSwitches:   res.ScheduleSwitches,
		}
		for _, id := range res.Excluded {
			row.Excluded = append(row.Excluded, uint32(id))
		}
		out.Rows = append(out.Rows, row)
	}
	if meanByMech[0] > 0 {
		out.LatencyImprovementPc = 100 * (meanByMech[0] - meanByMech[1]) / meanByMech[0]
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_scheduler.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("hammerhead mean commit latency improvement: %.0f%% -> BENCH_scheduler.json\n",
		out.LatencyImprovementPc)
	if meanByMech[1] >= meanByMech[0] {
		return fmt.Errorf("scheduler payoff inverted: hammerhead mean %.2fs >= bullshark %.2fs",
			meanByMech[1], meanByMech[0])
	}
	return nil
}

// runClientLoad measures the serving layer end to end: a REAL in-process
// 4-node cluster (wall clock, goroutines, HTTP gateways) under open-loop
// client load — submit-ack latency, submit-to-commit latency via the SSE
// stream, cross-validator KV read-back and chained-root agreement. This is
// the one experiment that cannot run in the discrete-event simulator: it
// exercises the actual HTTP surface clients use.
func runClientLoad(cfg benchConfig) error {
	fmt.Printf("\n==== Client load: RPC gateway, fair admission, submit->commit->read (wall clock) ====\n")
	load := 500.0
	if len(cfg.loads) > 0 {
		load = cfg.loads[0]
	}
	duration := cfg.duration
	if duration > 30*time.Second {
		// Wall-clock run; the simulated experiments' 60s default would just
		// burn real time without changing the numbers.
		duration = 30 * time.Second
	}
	s := hammerhead.NewClientLoadScenario(4, load, duration)
	res, err := hammerhead.RunClientLoad(s)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d rate=%.0f tx/s duration=%v clients=%d lanes-per-node=%d\n",
		s.N, s.RateTxPerSec, duration, s.Clients, s.Clients)
	fmt.Printf("submitted=%d accepted=%d rejected=%d committed=%d tput=%.0f tx/s\n",
		res.Submitted, res.Accepted, res.Rejected, res.Committed, res.ThroughputTxPerSec)
	fmt.Printf("submit-ack p50=%v p95=%v   submit->commit p50=%v p95=%v\n",
		res.SubmitLatency.P50, res.SubmitLatency.P95, res.CommitLatency.P50, res.CommitLatency.P95)
	fmt.Printf("kv-readback=%d/%d state_roots_agree=%v sse_resume=%v drained=%v\n",
		res.KVChecked-res.KVMismatches, res.KVChecked, res.StateRootsAgree, res.ResumeOK, res.Drained)
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
