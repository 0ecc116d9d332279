package simnet_test

import (
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/engine"
	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

func fastEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.MinRoundDelay = 50 * time.Millisecond
	cfg.LeaderTimeout = 500 * time.Millisecond
	cfg.VerifySignatures = false
	return cfg
}

// commitRecorder collects per-node anchor sequences and tx latencies.
type commitRecorder struct {
	anchors   map[types.ValidatorID][]types.Digest
	txLatency []time.Duration
	measureAt types.ValidatorID
}

func newCommitRecorder(measureAt types.ValidatorID) *commitRecorder {
	return &commitRecorder{
		anchors:   make(map[types.ValidatorID][]types.Digest),
		measureAt: measureAt,
	}
}

func (r *commitRecorder) hook(node types.ValidatorID, sub bullshark.CommittedSubDAG, now int64) {
	r.anchors[node] = append(r.anchors[node], sub.Anchor.Digest())
	if node != r.measureAt {
		return
	}
	for _, v := range sub.Vertices {
		if v.Batch == nil {
			continue
		}
		for _, tx := range v.Batch.Transactions {
			if tx.SubmitTimeNanos > 0 {
				r.txLatency = append(r.txLatency, time.Duration(now-tx.SubmitTimeNanos))
			}
		}
	}
}

func prefixConsistent(a, b []types.Digest) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newCluster builds an n-validator cluster on the round-robin baseline
// (seed 1), or on HammerHead with hh.
func newCluster(t *testing.T, n int, hh *core.Config, rec *commitRecorder, seed int64) *simnet.Cluster {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	var hook simnet.CommitHook
	if rec != nil {
		hook = rec.hook
	}
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		Committee:    committee,
		Engine:       fastEngineConfig(),
		Latency:      simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hh,
		ScheduleSeed: 1,
		OnCommit:     hook,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

// submitLoad schedules an open-loop tx stream to one validator.
func submitLoad(c *simnet.Cluster, to types.ValidatorID, every time.Duration, until time.Duration) {
	var next func()
	id := uint64(0)
	next = func() {
		if time.Duration(c.Sim.Now()) >= until {
			return
		}
		id++
		_ = c.SubmitTx(to, types.Transaction{ID: id, Payload: []byte("tx")})
		c.Sim.After(every, next)
	}
	c.Sim.After(every, next)
}

func TestClusterCommitsFaultless(t *testing.T) {
	rec := newCommitRecorder(0)
	cluster := newCluster(t, 4, nil, rec, 7)
	submitLoad(cluster, 0, 20*time.Millisecond, 10*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(12 * time.Second)

	for i := 0; i < 4; i++ {
		id := types.ValidatorID(i)
		if len(rec.anchors[id]) == 0 {
			t.Fatalf("validator %s committed nothing", id)
		}
	}
	// Safety: all per-node anchor sequences prefix-consistent.
	for i := 1; i < 4; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("validator v%d's commit sequence diverges from v0's", i)
		}
	}
	// Liveness: transactions achieved finality with sane latency.
	if len(rec.txLatency) == 0 {
		t.Fatal("no transactions reached finality")
	}
	var sum time.Duration
	for _, l := range rec.txLatency {
		sum += l
	}
	avg := sum / time.Duration(len(rec.txLatency))
	if avg <= 0 || avg > 3*time.Second {
		t.Fatalf("average latency %v implausible for a 25ms-RTT network", avg)
	}
	// No leader timeouts in a faultless run.
	for i := 0; i < 4; i++ {
		if got := cluster.Engine(types.ValidatorID(i)).Stats().LeaderTimeouts; got != 0 {
			t.Fatalf("validator v%d fired %d leader timeouts in a faultless run", i, got)
		}
	}
}

func TestClusterDeterministicBySeed(t *testing.T) {
	run := func() (uint64, uint64, []types.Digest) {
		rec := newCommitRecorder(0)
		cluster := newCluster(t, 4, nil, rec, 42)
		submitLoad(cluster, 1, 30*time.Millisecond, 5*time.Second)
		cluster.Start()
		cluster.Sim.RunFor(6 * time.Second)
		return cluster.MessagesSent(), cluster.Sim.Processed(), rec.anchors[2]
	}
	m1, p1, a1 := run()
	m2, p2, a2 := run()
	if m1 != m2 || p1 != p2 {
		t.Fatalf("runs differ: msgs %d vs %d, events %d vs %d", m1, m2, p1, p2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("commit counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("anchor %d differs between identical runs", i)
		}
	}
}

func TestClusterBaselineSuffersCrashedLeader(t *testing.T) {
	// With a crashed validator, the round-robin baseline keeps electing it
	// and fires leader timeouts forever.
	rec := newCommitRecorder(0)
	cluster := newCluster(t, 4, nil, rec, 3)
	cluster.CrashAt(3, 0)
	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)

	if len(rec.anchors[0]) == 0 {
		t.Fatal("liveness lost: no commits with one crashed validator")
	}
	var timeouts uint64
	for i := 0; i < 3; i++ {
		timeouts += cluster.Engine(types.ValidatorID(i)).Stats().LeaderTimeouts
	}
	if timeouts == 0 {
		t.Fatal("baseline must fire leader timeouts for the crashed leader")
	}
	skipped := cluster.Engine(0).Committer().Stats().SkippedAnchors
	if skipped == 0 {
		t.Fatal("baseline must skip the crashed leader's anchors")
	}
}

func TestClusterHammerHeadExcludesCrashedLeader(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EpochCommits = 5
	rec := newCommitRecorder(0)
	cluster := newCluster(t, 4, &cfg, rec, 3)
	cluster.CrashAt(3, 0)
	cluster.Start()
	cluster.Sim.RunFor(30 * time.Second)

	if len(rec.anchors[0]) == 0 {
		t.Fatal("no commits")
	}
	// Every live validator's scheduler must have switched and excluded v3.
	for i := 0; i < 3; i++ {
		m, ok := cluster.Engine(types.ValidatorID(i)).Scheduler().(*core.Manager)
		if !ok {
			t.Fatal("scheduler is not a HammerHead manager")
		}
		if m.SwitchCount() == 0 {
			t.Fatalf("validator v%d never switched schedules", i)
		}
		excluded := m.Excluded()
		if len(excluded) != 1 || excluded[0] != 3 {
			t.Fatalf("validator v%d excluded %v, want [v3]", i, excluded)
		}
	}
	// After the swap the active schedule never elects v3, so late-window
	// leader timeouts must stop. Compare to the baseline in the test above
	// qualitatively: skipped anchors stay bounded.
	skipped := cluster.Engine(0).Committer().Stats().SkippedAnchors
	if skipped > 8 {
		t.Fatalf("HammerHead skipped %d anchors; exclusion is not working", skipped)
	}
	// Safety across validators.
	for i := 1; i < 4; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("validator v%d's commits diverge", i)
		}
	}
}

func TestClusterCrashRecoveryCatchesUp(t *testing.T) {
	rec := newCommitRecorder(0)
	cluster := newCluster(t, 4, nil, rec, 5)
	cluster.CrashAt(2, 5*time.Second)
	cluster.Recover(2, 10*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(25 * time.Second)

	healthy := cluster.Engine(0).Committer().LastOrderedRound()
	recovered := cluster.Engine(2).Committer().LastOrderedRound()
	if healthy == 0 {
		t.Fatal("healthy validators made no progress")
	}
	if recovered == 0 {
		t.Fatal("recovered validator never committed")
	}
	if healthy-recovered > 10 {
		t.Fatalf("recovered validator lags %d rounds behind (healthy %d, recovered %d)",
			healthy-recovered, healthy, recovered)
	}
	if !prefixConsistent(rec.anchors[2], rec.anchors[0]) {
		t.Fatal("recovered validator's commit sequence diverges")
	}
}

func TestClusterSlowdownInflatesLatency(t *testing.T) {
	// The §1 incident in miniature: degrade one validator's links mid-run
	// and verify rounds keep progressing (no stall).
	rec := newCommitRecorder(0)
	cluster := newCluster(t, 4, nil, rec, 8)
	cluster.SlowDown(1, 8.0, 5*time.Second, 15*time.Second)
	submitLoad(cluster, 0, 50*time.Millisecond, 18*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)
	if len(rec.txLatency) == 0 {
		t.Fatal("no finality under slowdown")
	}
	if len(rec.anchors[0]) < 5 {
		t.Fatalf("only %d commits in 20s under a single slow validator", len(rec.anchors[0]))
	}
}

func TestGeoModel(t *testing.T) {
	g := simnet.NewGeo(100)
	if got := len(g.RegionOf); got != 100 {
		t.Fatalf("RegionOf length = %d", got)
	}
	// Round-robin assignment: validators 0 and 13 share region 0.
	if g.RegionName(0) != g.RegionName(13) {
		t.Fatal("round-robin region assignment broken")
	}
	// Symmetry and positivity of RTTs.
	for a := 0; a < 13; a++ {
		for b := 0; b < 13; b++ {
			if g.RTT(a, b) != g.RTT(b, a) {
				t.Fatalf("RTT asymmetric between %d and %d", a, b)
			}
			if g.RTT(a, b) <= 0 {
				t.Fatalf("RTT(%d,%d) = %v", a, b, g.RTT(a, b))
			}
		}
	}
	// Intra-region must be far cheaper than trans-pacific.
	if g.RTT(0, 0) >= g.RTT(0, 10) {
		t.Fatal("intra-region RTT must be below us-east<->sydney")
	}
}

func TestSimulatorOrdering(t *testing.T) {
	s := simnet.New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(10*time.Millisecond, func() { got = append(got, 2) }) // same instant: FIFO
	s.RunFor(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v, want [1 2 3]", got)
	}
	if s.Now() != time.Second.Nanoseconds() {
		t.Fatalf("Now = %d, want 1s", s.Now())
	}
	if s.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", s.Processed())
	}
}
