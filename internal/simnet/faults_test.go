package simnet_test

import (
	"bytes"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

func newClusterWithConfig(t *testing.T, cfg simnet.ClusterConfig) *simnet.Cluster {
	t.Helper()
	cluster, err := simnet.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

func TestClusterSurvivesMessageLoss(t *testing.T) {
	// 5% of all messages vanish: header retransmission and causal sync must
	// keep the cluster live and safe.
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	rec := newCommitRecorder(0)
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:    committee,
		Engine:       fastEngineConfig(),
		Latency:      simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		OnCommit:     rec.hook,
		Seed:         21,
		DropRate:     0.05,
	})
	submitLoad(cluster, 0, 50*time.Millisecond, 25*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(30 * time.Second)

	if cluster.MessagesDropped() == 0 {
		t.Fatal("drop injection did not fire")
	}
	if len(rec.anchors[0]) < 5 {
		t.Fatalf("only %d commits under 5%% loss", len(rec.anchors[0]))
	}
	for i := 1; i < 4; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("commit sequences diverge under message loss (v%d)", i)
		}
	}
	if len(rec.txLatency) == 0 {
		t.Fatal("no transaction reached finality under loss")
	}
}

func TestClusterSurvivesHeavyLossWithHammerHead(t *testing.T) {
	// 15% loss plus a crashed validator plus schedule switching — the
	// adversarial kitchen sink for the sync machinery.
	committee, err := types.NewEqualStakeCommittee(7)
	if err != nil {
		t.Fatal(err)
	}
	hh := core.DefaultConfig()
	hh.EpochCommits = 4
	rec := newCommitRecorder(0)
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:  committee,
		Engine:     fastEngineConfig(),
		Latency:    simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.2},
		HammerHead: &hh,
		OnCommit:   rec.hook,
		Seed:       5,
		DropRate:   0.15,
	})
	cluster.CrashAt(6, 0)
	cluster.Start()
	cluster.Sim.RunFor(60 * time.Second)

	if len(rec.anchors[0]) < 5 {
		t.Fatalf("only %d commits under 15%% loss + crash", len(rec.anchors[0]))
	}
	for i := 1; i < 6; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("commit sequences diverge (v%d)", i)
		}
	}
	m, ok := cluster.Engine(0).Scheduler().(*core.Manager)
	if !ok || m.SwitchCount() == 0 {
		t.Fatal("schedule never switched under loss")
	}
}

func TestClusterAsynchronyThenGST(t *testing.T) {
	// Model a pre-GST period: every link is 20x slower for the first 10
	// simulated seconds, then the network stabilizes. Liveness must resume
	// and all progress must stay prefix-consistent (the paper's partial
	// synchrony model).
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	rec := newCommitRecorder(0)
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:    committee,
		Engine:       fastEngineConfig(),
		Latency:      simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		OnCommit:     rec.hook,
		Seed:         13,
	})
	for i := 0; i < 4; i++ {
		cluster.SlowDown(types.ValidatorID(i), 20, 0, 10*time.Second)
	}
	cluster.Start()
	cluster.Sim.RunFor(40 * time.Second)

	if len(rec.anchors[0]) < 10 {
		t.Fatalf("only %d commits after GST", len(rec.anchors[0]))
	}
	for i := 1; i < 4; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("asynchrony broke agreement (v%d)", i)
		}
	}
}

func TestClusterTinyEpochStressesScheduleSwitches(t *testing.T) {
	// One-commit epochs switch the schedule at every ordered anchor,
	// maximizing mid-chain switches and discarded tips — the trickiest
	// retroactivity path (paper §3's second challenge).
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	hh := core.DefaultConfig()
	hh.EpochCommits = 1
	rec := newCommitRecorder(0)
	states := map[types.ValidatorID][][]byte{}
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:  committee,
		Engine:     fastEngineConfig(),
		Latency:    simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.15},
		HammerHead: &hh,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, now int64) {
			rec.hook(node, sub, now)
			data, err := sub.SchedulerState.Encode()
			if err != nil {
				t.Error(err)
			}
			states[node] = append(states[node], data)
		},
		Seed: 17,
	})
	cluster.CrashAt(3, 5*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(45 * time.Second)

	m := cluster.Engine(0).Scheduler().(*core.Manager)
	if m.SwitchCount() < 10 {
		t.Fatalf("only %d switches with one-commit epochs", m.SwitchCount())
	}
	if len(rec.anchors[0]) < 10 {
		t.Fatalf("liveness suffered: %d commits", len(rec.anchors[0]))
	}
	for i := 1; i < 3; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("rapid switching broke agreement (v%d)", i)
		}
	}
	// All live validators agree on the schedule: every commit of the shared
	// prefix carries the same scheduler state, byte for byte.
	for i := 1; i < 3; i++ {
		ref, other := states[0], states[types.ValidatorID(i)]
		for j := 0; j < len(ref) && j < len(other); j++ {
			if !bytes.Equal(ref[j], other[j]) {
				t.Fatalf("commit %d carries a different scheduler state on v%d", j, i)
			}
		}
	}
}

func TestClusterGarbageCollectionBoundsState(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	engCfg := fastEngineConfig()
	engCfg.GCDepth = 10
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:    committee,
		Engine:       engCfg,
		Latency:      simnet.Uniform{Base: 10 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		Seed:         3,
	})
	cluster.Start()
	cluster.Sim.RunFor(60 * time.Second)

	eng := cluster.Engine(0)
	if eng.DAG().PrunedTo() == 0 {
		t.Fatal("GC never pruned the DAG")
	}
	// Retained window must be bounded: roughly (lastOrdered - prunedTo) plus
	// the frontier, far below the total number of rounds seen.
	retainedRounds := eng.DAG().HighestRound() - eng.DAG().PrunedTo()
	if retainedRounds > 120 {
		t.Fatalf("retained %d rounds; GC is not keeping up", retainedRounds)
	}
	if eng.DAG().VertexCount() > int(retainedRounds+2)*4 {
		t.Fatalf("vertex count %d exceeds retained window", eng.DAG().VertexCount())
	}
}
