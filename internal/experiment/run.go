package experiment

import (
	"fmt"
	"os"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

// Result is the outcome of one scenario run: the numbers the paper's
// figures plot plus protocol-level counters.
type Result struct {
	Scenario Scenario

	// Submitted and Executed count transactions offered and finalized
	// (executed at the observer validator) within the run window.
	Submitted uint64
	Executed  uint64
	// ThroughputTxPerSec is Executed divided by the run duration — the
	// y-axis... x-axis of Figures 1-2.
	ThroughputTxPerSec float64
	// Latency is submission-to-execution latency at the observer.
	Latency LatencyStats

	// WindowLatencies holds per-window latency stats when Scenario.Windows
	// is set (len(Windows)+1 entries, by submit time). Window samples ignore
	// the warmup cut — the windows themselves define the periods of
	// interest.
	WindowLatencies []LatencyStats

	// Protocol counters (observer validator).
	Commits          uint64
	SkippedAnchors   uint64
	LeaderTimeouts   uint64
	ScheduleSwitches int
	Excluded         []types.ValidatorID
	LastOrderedRound types.Round
	// SimEvents is the number of simulation events processed (cost metric).
	SimEvents uint64

	// Execution/state-sync results.
	// SnapshotInstalls counts snapshots installed across the cluster.
	SnapshotInstalls uint64
	// MinAppliedSeq is the lowest commit sequence applied by any validator
	// alive at the end of the run. StateRootsAgree reports whether every
	// such validator whose root ring still covers that sequence chained the
	// same state root there; StateRootsCompared counts how many were
	// comparable (a laggard more than the ring size behind the frontier —
	// e.g. a HammerHead-scheduled absentee that cannot snapshot-sync —
	// makes live validators' rings expire, which is lag, not divergence).
	MinAppliedSeq      uint64
	StateRootsAgree    bool
	StateRootsCompared int
	// StateRoot is the root the first comparable validator chained at
	// MinAppliedSeq: a hash over every commit up to there (index, anchor,
	// ordered vertex digests), so equal roots mean equal commit streams.
	StateRoot types.Digest

	// Crash-restart results (Scenario.KillAllAt only). Restarts counts
	// validator restarts performed; TimeToFirstPostCrashCommit is how long
	// after the committee came back from the correlated SIGKILL the observer
	// delivered its first fresh (non-replayed) commit — zero means it never
	// recovered within the run.
	Restarts                   uint64
	TimeToFirstPostCrashCommit time.Duration
}

// observer is the validator where latency and throughput are measured. It
// is never crashed (faults take the highest IDs).
const observer = types.ValidatorID(0)

// Run executes one scenario and returns its measurements.
func Run(s Scenario) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}

	// Execution stage model: a FIFO server at the observer with service time
	// execCostPerTx per transaction; latency is submit -> execution done.
	execCost := s.execCostPerTx().Nanoseconds()
	var execFreeAt int64
	var executed, commits uint64
	var latencies []time.Duration
	warmupNanos := s.Warmup.Nanoseconds()
	endNanos := s.Duration.Nanoseconds()
	windowSamples := make([][]time.Duration, len(s.Windows)+1)
	windowAt := func(submit int64) int {
		for i, b := range s.Windows {
			if submit < b.Nanoseconds() {
				return i
			}
		}
		return len(s.Windows)
	}

	// Crash-restart recovery clock: the first fresh commit the observer
	// delivers at or after the restart instant. Replay-time re-derivations
	// never reach the hook (the cluster suppresses them), so this genuinely
	// measures post-crash liveness.
	restartNanos := (s.KillAllAt + s.RestartDowntime).Nanoseconds()
	var firstPostCrash int64

	hook := func(node types.ValidatorID, sub bullshark.CommittedSubDAG, now int64) {
		if node != observer {
			return
		}
		if s.KillAllAt > 0 && now >= restartNanos && firstPostCrash == 0 {
			firstPostCrash = now
		}
		commits++
		for _, v := range sub.Vertices {
			if v.Batch == nil {
				continue
			}
			for i := range v.Batch.Transactions {
				tx := &v.Batch.Transactions[i]
				start := now
				if execFreeAt > start {
					start = execFreeAt
				}
				done := start + execCost
				execFreeAt = done
				if done > endNanos {
					continue // finalized after the measured run
				}
				if len(s.Windows) > 0 && tx.SubmitTimeNanos > 0 {
					w := windowAt(tx.SubmitTimeNanos)
					windowSamples[w] = append(windowSamples[w], time.Duration(done-tx.SubmitTimeNanos))
				}
				// Aggregate stats cover only the steady-state window:
				// transactions submitted after warmup.
				if tx.SubmitTimeNanos < warmupNanos {
					continue
				}
				executed++
				if tx.SubmitTimeNanos > 0 {
					latencies = append(latencies, time.Duration(done-tx.SubmitTimeNanos))
				}
			}
		}
	}

	cluster, err := newCluster(s, hook)
	if err != nil {
		return Result{}, err
	}
	if s.KillAllAt > 0 {
		// Correlated crash-restart injection: kill the whole committee mid-run
		// and restart every validator from its log and snapshot files, kept
		// in a scratch directory for the length of the run.
		dir, err := os.MkdirTemp("", "hammerhead-crash-restart-")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(dir)
		if err := cluster.RecordWALs(dir); err != nil {
			return Result{}, err
		}
		defer cluster.Close()
		cluster.KillRestartAll(s.KillAllAt, s.RestartDowntime)
	}

	submitted := startLoad(cluster, s)
	cluster.Start()
	cluster.Sim.RunFor(s.Duration)

	res := Result{
		Scenario:           s,
		Submitted:          *submitted,
		Executed:           executed,
		ThroughputTxPerSec: float64(executed) / (s.Duration - s.Warmup).Seconds(),
		Latency:            SummarizeLatencies(latencies),
		Commits:            commits,
		SimEvents:          cluster.Sim.Processed(),
	}
	if len(s.Windows) > 0 {
		res.WindowLatencies = make([]LatencyStats, len(windowSamples))
		for i, samples := range windowSamples {
			res.WindowLatencies[i] = SummarizeLatencies(samples)
		}
	}
	obs := cluster.Engine(observer)
	cs := obs.Committer().Stats()
	res.SkippedAnchors = cs.SkippedAnchors
	res.LeaderTimeouts = obs.Stats().LeaderTimeouts
	res.LastOrderedRound = obs.Committer().LastOrderedRound()
	if m, ok := obs.Scheduler().(*core.Manager); ok {
		res.ScheduleSwitches = m.SwitchCount()
		res.Excluded = m.Excluded()
	}
	collectExecutionResults(cluster, s, &res)
	if s.KillAllAt > 0 {
		res.Restarts = cluster.Restarts()
		if firstPostCrash > 0 {
			res.TimeToFirstPostCrashCommit = time.Duration(firstPostCrash - restartNanos)
		}
	}
	return res, nil
}

// newCluster assembles the scenario's simulated deployment — committee,
// schedulers, network — and schedules its faults. The caller starts the load
// and the cluster.
func newCluster(s Scenario, onCommit simnet.CommitHook) (*simnet.Cluster, error) {
	committee, err := types.NewEqualStakeCommittee(s.N)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	var hh *core.Config
	if s.Mechanism != Bullshark {
		cfg := s.CoreConfig()
		hh = &cfg
	}
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		Committee:          committee,
		Engine:             s.EngineConfig(),
		Latency:            simnet.NewGeo(s.N),
		HammerHead:         hh,
		ScheduleSeed:       uint64(s.Seed),
		OnCommit:           onCommit,
		CheckpointInterval: s.CheckpointCommits,
		Seed:               s.Seed,
	})
	if err != nil {
		return nil, err
	}

	// Fault injection: the highest-ID validators crash at CrashAt and, for
	// the reintegration experiment, recover at RecoverAt.
	for i := 0; i < s.Faults; i++ {
		id := types.ValidatorID(s.N - 1 - i)
		cluster.CrashAt(id, s.CrashAt)
		if s.RecoverAt > 0 {
			cluster.Recover(id, s.RecoverAt)
		}
	}
	// Byzantine injection: WithholdCount validators (below the crashed set)
	// suppress their own headers toward the lower half of the committee — too
	// few reachable voters for a quorum, so their vertices never certify.
	withheldPeers := make([]types.ValidatorID, (s.N+1)/2)
	for i := range withheldPeers {
		withheldPeers[i] = types.ValidatorID(i)
	}
	for i := 0; i < s.WithholdCount; i++ {
		id := types.ValidatorID(s.N - 1 - s.Faults - i)
		cluster.Withhold(id, withheldPeers, s.WithholdAt)
	}
	// Incident injection: SlowCount validators (next-highest live IDs)
	// degraded.
	for i := 0; i < s.SlowCount; i++ {
		id := types.ValidatorID(s.N - 1 - s.Faults - s.WithholdCount - i)
		cluster.SlowDown(id, s.SlowFactor, s.SlowFrom, s.SlowUntil)
	}
	return cluster, nil
}

// collectExecutionResults sums snapshot installs and checks state-root
// agreement at the lowest applied sequence among end-of-run-live validators
// (permanently crashed ones are excluded: they stopped mid-stream).
func collectExecutionResults(cluster *simnet.Cluster, s Scenario, res *Result) {
	crashedForever := map[types.ValidatorID]bool{}
	if s.RecoverAt <= 0 {
		for i := 0; i < s.Faults; i++ {
			crashedForever[types.ValidatorID(s.N-1-i)] = true
		}
	}
	minSeq := ^uint64(0)
	var live []types.ValidatorID
	for i := 0; i < s.N; i++ {
		id := types.ValidatorID(i)
		res.SnapshotInstalls += cluster.Engine(id).Stats().SnapshotInstalls
		if crashedForever[id] {
			continue
		}
		live = append(live, id)
		if seq := cluster.Executor(id).AppliedSeq(); seq < minSeq {
			minSeq = seq
		}
	}
	if len(live) == 0 || minSeq == 0 || minSeq == ^uint64(0) {
		return
	}
	res.MinAppliedSeq = minSeq
	res.StateRootsAgree = true
	for _, id := range live {
		root, ok := cluster.Executor(id).RootAt(minSeq)
		if !ok {
			continue // ring expired: lag, not divergence
		}
		if res.StateRootsCompared == 0 {
			res.StateRoot = root
		} else if root != res.StateRoot {
			res.StateRootsAgree = false
		}
		res.StateRootsCompared++
	}
}

// startLoad schedules the open-loop client stream: total rate LoadTxPerSec,
// spread round-robin over live validators; a client whose target is crashed
// fails over to the next live one (the paper's load generators target live
// validators). Returns a counter of submitted transactions.
func startLoad(cluster *simnet.Cluster, s Scenario) *uint64 {
	submitted := new(uint64)
	if s.LoadTxPerSec <= 0 {
		return submitted
	}
	interval := time.Duration(float64(time.Second) / s.LoadTxPerSec)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	payload := make([]byte, txPayloadBytes)
	n := s.N
	var seq uint64
	var tick func()
	tick = func() {
		if cluster.Sim.Now() >= s.Duration.Nanoseconds() {
			return
		}
		seq++
		tx := types.Transaction{ID: seq, Payload: payload}
		// Round-robin with fail-over across the committee. The fail-over
		// probe strides by a value coprime to n so that load aimed at a
		// contiguous block of crashed validators spreads uniformly over the
		// live ones instead of piling onto the first live neighbour.
		stride := uint64(1)
		for _, p := range []uint64{37, 31, 23, 17, 3} {
			if uint64(n)%p != 0 {
				stride = p
				break
			}
		}
		for attempt := uint64(0); attempt < uint64(n); attempt++ {
			target := types.ValidatorID((seq + attempt*stride) % uint64(n))
			if err := cluster.SubmitTx(target, tx); err == nil {
				*submitted++
				break
			}
		}
		cluster.Sim.After(interval, tick)
	}
	cluster.Sim.After(interval, tick)
	return submitted
}
