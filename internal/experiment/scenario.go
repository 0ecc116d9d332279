package experiment

import (
	"fmt"
	"time"

	"hammerhead/internal/core"
	"hammerhead/internal/engine"
)

// Mechanism selects the leader-election mechanism under test.
type Mechanism uint8

const (
	// Bullshark is the baseline: static stake-weighted round-robin.
	Bullshark Mechanism = iota + 1
	// HammerHead is the paper's reputation-based dynamic schedule.
	HammerHead
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case Bullshark:
		return "bullshark"
	case HammerHead:
		return "hammerhead"
	default:
		return "unknown"
	}
}

// Scenario describes one experiment run. Construct with NewScenario to get
// calibrated defaults, then override fields as needed.
type Scenario struct {
	Name      string
	Mechanism Mechanism
	// N is the committee size; Faults validators (the highest IDs) crash at
	// CrashAt (default: from genesis).
	N      int
	Faults int
	// LoadTxPerSec is the total offered client load, split round-robin over
	// live validators.
	LoadTxPerSec float64
	// Duration is the total run length (virtual time); Warmup is the initial
	// slice excluded from latency and throughput statistics. The paper's
	// 10-minute runs amortize startup and schedule-adaptation transients the
	// same way; shorter simulated runs need the explicit cut.
	Duration time.Duration
	Warmup   time.Duration
	Seed     int64

	// Schedule epochs end every EpochCommits commits, and Scoring rates the
	// leaders (the paper's evaluation settings by default). Each schedule
	// swaps out at most f stake.
	EpochCommits int
	Scoring      core.ScoringRule

	// Engine pacing.
	MinRoundDelay time.Duration
	LeaderTimeout time.Duration
	MaxBatchTx    int
	// GCDepthRounds overrides the engine's DAG retention window (0 keeps
	// the default). A validator rejoining beyond it recovers through
	// checkpoint state-sync, so the default depth suffices.
	GCDepthRounds uint64

	// Execution is ignored: every validator runs a deterministic executor
	// (KV ledger + periodic checkpoints) with snapshot state-sync under
	// either mechanism — round-robin schedules fast-forward trivially, and
	// HammerHead's reputation state rides inside the checkpoints, so a
	// snapshot install re-establishes the exact schedule.
	//
	// Deprecated: kept only because the benchmark still sets it.
	Execution bool
	// CheckpointCommits is the number of commits between checkpoints
	// (0 = execution default).
	CheckpointCommits uint64

	// Fault timing: CrashAt is when the Faults validators die (0 = genesis);
	// RecoverAt, if positive, revives them (reintegration experiment A3).
	CrashAt   time.Duration
	RecoverAt time.Duration

	// Correlated crash-restart injection: when KillAllAt is positive, the
	// WHOLE committee is SIGKILLed at that time (all in-flight messages and
	// per-validator memory discarded) and restarted from its files after
	// RestartDowntime — the power-loss scenario the crash-rejoin handshake
	// exists for. Result.TimeToFirstPostCrashCommit reports recovery speed.
	KillAllAt       time.Duration
	RestartDowntime time.Duration

	// Incident injection (experiment T1): SlowCount validators are slowed by
	// SlowFactor within [SlowFrom, SlowUntil].
	SlowCount  int
	SlowFactor float64
	SlowFrom   time.Duration
	SlowUntil  time.Duration

	// Byzantine injection: WithholdCount validators (the highest live IDs
	// below the crashed set) suppress their own header broadcasts toward the
	// lower half of the committee from WithholdAt on. They keep voting and
	// relaying — to the committee each looks like a live leader whose
	// proposals never land, the §1 incident's selective-withholding shape —
	// but their vertices can never gather a vote quorum.
	WithholdCount int
	WithholdAt    time.Duration

	// Windows, when non-empty, are ascending submit-time boundaries that
	// split latency samples into len(Windows)+1 buckets (before the first
	// boundary, between consecutive ones, after the last). The incident
	// experiment uses them to compare p50/p95 before, during and after the
	// degradation, like the paper's §1 production timeline.
	Windows []time.Duration
}

// NewScenario returns a calibrated scenario for the given mechanism,
// committee size, faults and load, mirroring the paper's §5 setup: geo
// deployment over 13 regions, schedule recomputed every 10 commits,
// bottom-third exclusion, vote-based scoring.
func NewScenario(m Mechanism, n, faults int, loadTxPerSec float64) Scenario {
	return Scenario{
		Name:          fmt.Sprintf("%s-n%d-f%d-load%.0f", m, n, faults, loadTxPerSec),
		Mechanism:     m,
		N:             n,
		Faults:        faults,
		LoadTxPerSec:  loadTxPerSec,
		Duration:      2 * time.Minute,
		Warmup:        40 * time.Second,
		Seed:          1,
		EpochCommits:  10,
		Scoring:       core.ScoringVotes,
		MinRoundDelay: 400 * time.Millisecond,
		LeaderTimeout: 3 * time.Second,
		MaxBatchTx:    batchCapFor(n),
	}
}

// The simulated deployment's fixed model: every scenario runs it.
const (
	// txPayloadBytes sizes transactions (the paper uses tiny counter
	// increments).
	txPayloadBytes = 32
	// The execution capacity model: service time per transaction is
	// execBaseTxCost + execPerValidatorCost*N, calibrating the saturation
	// knee to the paper's ~4,000 tx/s (n=10/50) and ~3,500 tx/s (n=100).
	execBaseTxCost       = 230 * time.Microsecond
	execPerValidatorCost = 450 * time.Nanosecond
)

// batchCapFor sizes the per-header transaction cap so that faultless
// consensus capacity sits ~60% above the execution knee for every committee
// size. With that headroom, crashing f validators leaves HammerHead's
// capacity above the execution knee (live validators at full cadence: no
// visible throughput loss, claim C3) while Bullshark's timeout-halved
// cadence pushes its capacity below it (the 25-40% drop of Figure 2).
//
// Derivation: normal cadence is ~1 header per validator per
// (MinRoundDelay + ~0.25s geo RTT) =: hr. Target capacity C = 1.6 * ~4000;
// cap = C / (n * hr). That cadence holds while a validator is down. Once a
// round holds every validator's certificate, which never happens with
// validators crashed, rounds are paced by period instead (see
// engine.Config.MinRoundDelay) and a full batch lifts the floor, so the fault
// scenarios keep hr, while in a faultless run three rounds of every four
// leave one certification round trip after the round before, the fourth
// once a floor has passed since the first, and a backlogged run goes faster
// still.
func batchCapFor(n int) int {
	const headerRatePerSec = 1.0 / 0.65
	cap := 1.6 * 4000.0 / (float64(n) * headerRatePerSec)
	if cap < 1 {
		return 1
	}
	return int(cap + 0.5)
}

// NewCatchUpScenario returns a scenario stressing the commit path's
// catch-up machinery under sustained load: faults validators crash shortly
// after genesis and recover at 60% of the run, far behind a committee that
// kept committing at high-load pacing the whole time. The recovering
// validators must re-sync hundreds of rounds while live traffic keeps
// arriving. GC runs at the DEFAULT depth: the gap exceeds the horizon, so
// recovery goes through snapshot state-sync. Both mechanisms recover fully:
// HammerHead's schedule state rides in the snapshot and fast-forwards.
func NewCatchUpScenario(m Mechanism, n, faults int, loadTxPerSec float64) Scenario {
	s := NewScenario(m, n, faults, loadTxPerSec)
	s.Name = fmt.Sprintf("%s-catchup-n%d-f%d-load%.0f", m, n, faults, loadTxPerSec)
	s.MinRoundDelay = 150 * time.Millisecond
	s.CrashAt = 5 * time.Second
	s.RecoverAt = s.Duration * 3 / 5
	s.CheckpointCommits = 16
	return s
}

// NewSnapshotCatchUpScenario returns the snapshot state-sync stress
// scenario: like NewCatchUpScenario but with a longer outage (crash early,
// recover at 70% of the run) and frequent checkpoints, guaranteeing the
// recovering validators are far past the GC horizon and MUST install a
// snapshot to rejoin. Measure Result.SnapshotInstalls and
// Result.StateRootsAgree.
func NewSnapshotCatchUpScenario(m Mechanism, n, faults int, loadTxPerSec float64) Scenario {
	s := NewScenario(m, n, faults, loadTxPerSec)
	s.Name = fmt.Sprintf("%s-snapcatchup-n%d-f%d-load%.0f", m, n, faults, loadTxPerSec)
	s.MinRoundDelay = 100 * time.Millisecond
	s.CrashAt = 3 * time.Second
	s.RecoverAt = s.Duration * 7 / 10
	s.CheckpointCommits = 8
	return s
}

// NewCrashRestartScenario returns the correlated crash-restart scenario: the
// whole committee is SIGKILLed a third of the way into the run and restarted
// from WALs two (simulated) seconds later. Checkpoints are frequent so
// recovery exercises the full snapshot-restore → WAL-replay → rejoin
// startup sequence; the headline number is
// Result.TimeToFirstPostCrashCommit — how long after the restart the first
// fresh commit lands — and StateRootsAgree proves the committee converged.
func NewCrashRestartScenario(m Mechanism, n int, loadTxPerSec float64) Scenario {
	s := NewScenario(m, n, 0, loadTxPerSec)
	s.Name = fmt.Sprintf("%s-crashrestart-n%d-load%.0f", m, n, loadTxPerSec)
	s.MinRoundDelay = 150 * time.Millisecond
	s.CheckpointCommits = 16
	s.KillAllAt = s.Duration / 3
	s.RestartDowntime = 2 * time.Second
	return s
}

// NewByzantineLeaderScenario returns the faulty-leader showcase: a committee
// of n (default 10) carrying the full tolerable mix of bad leaders — one
// crash-faulty, one selectively withholding its headers from half the
// committee, one badly lagging — all turning faulty shortly after genesis.
// Under round-robin every one of them keeps its leader slots and each of its
// anchor rounds eats the leader timeout; the reputation scheduler scores all
// three out after a few epochs. The commit-latency gap between the two
// mechanisms on this scenario is the scheduler's payoff in one number.
func NewByzantineLeaderScenario(m Mechanism, n int, loadTxPerSec float64) Scenario {
	s := NewScenario(m, n, 1, loadTxPerSec)
	s.Name = fmt.Sprintf("%s-byzleader-n%d-load%.0f", m, n, loadTxPerSec)
	s.EpochCommits = 6
	s.CrashAt = 10 * time.Second
	s.WithholdCount = 1
	s.WithholdAt = 10 * time.Second
	s.SlowCount = 1
	s.SlowFactor = 8
	s.SlowFrom = 10 * time.Second
	s.SlowUntil = s.Duration
	return s
}

// execCostPerTx returns the modeled execution service time per transaction.
func (s Scenario) execCostPerTx() time.Duration {
	return execBaseTxCost + time.Duration(s.N)*execPerValidatorCost
}

// EngineConfig assembles the engine configuration for the scenario.
func (s Scenario) EngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.MinRoundDelay = s.MinRoundDelay
	cfg.LeaderTimeout = s.LeaderTimeout
	cfg.MaxBatchTx = s.MaxBatchTx
	// The paper's evaluation is crash-only: no signing, no verification.
	cfg.VerifySignatures = false
	if s.GCDepthRounds > 0 {
		cfg.GCDepth = s.GCDepthRounds
	}
	return cfg
}

// CoreConfig assembles the HammerHead scheduler configuration.
func (s Scenario) CoreConfig() core.Config {
	cfg := core.DefaultConfig()
	if s.EpochCommits > 0 {
		cfg.EpochCommits = s.EpochCommits
	}
	if s.Scoring != 0 {
		cfg.Scoring = s.Scoring
	}
	return cfg
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	if s.Mechanism != Bullshark && s.Mechanism != HammerHead {
		return fmt.Errorf("experiment: unknown mechanism %d", s.Mechanism)
	}
	if s.N < 1 {
		return fmt.Errorf("experiment: N must be >= 1, got %d", s.N)
	}
	if s.Faults < 0 || s.Faults >= s.N {
		return fmt.Errorf("experiment: faults %d out of range for n=%d", s.Faults, s.N)
	}
	if s.Faults > (s.N-1)/3 {
		return fmt.Errorf("experiment: faults %d exceed tolerance f=%d", s.Faults, (s.N-1)/3)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("experiment: duration must be positive")
	}
	if s.Warmup < 0 || s.Warmup >= s.Duration {
		return fmt.Errorf("experiment: warmup %v must be within the %v duration", s.Warmup, s.Duration)
	}
	if s.WithholdCount < 0 {
		return fmt.Errorf("experiment: withhold count must be >= 0")
	}
	if s.WithholdCount > 0 && s.Faults+s.WithholdCount+s.SlowCount >= s.N {
		return fmt.Errorf("experiment: %d crashed + %d withholding + %d slow leaves no healthy validator in n=%d",
			s.Faults, s.WithholdCount, s.SlowCount, s.N)
	}
	if s.KillAllAt < 0 || s.RestartDowntime < 0 {
		return fmt.Errorf("experiment: crash-restart times must be >= 0")
	}
	if s.KillAllAt > 0 && s.KillAllAt+s.RestartDowntime >= s.Duration {
		return fmt.Errorf("experiment: kill at %v + downtime %v leaves no post-restart window in %v",
			s.KillAllAt, s.RestartDowntime, s.Duration)
	}
	return nil
}
