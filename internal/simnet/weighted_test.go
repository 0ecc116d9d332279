package simnet_test

import (
	"testing"
	"time"

	"hammerhead/internal/core"
	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

// TestWeightedStakeCommittee runs the full stack over a heterogeneous-stake
// committee — the configuration that motivates the paper's stake-weighted
// model ("validators vary in stake and thus leader election frequency") —
// and checks that leadership frequency tracks stake and that HammerHead's
// swap respects the stake budget when the heavy validator crashes.
func TestWeightedStakeCommittee(t *testing.T) {
	// Total stake 12, f = 3: v0 holds 4 (a "major validator"), the rest 1.
	auths := []types.Authority{
		{ID: 0, Stake: 4}, {ID: 1, Stake: 1}, {ID: 2, Stake: 1}, {ID: 3, Stake: 1},
		{ID: 4, Stake: 1}, {ID: 5, Stake: 1}, {ID: 6, Stake: 1}, {ID: 7, Stake: 1},
		{ID: 8, Stake: 1},
	}
	committee, err := types.NewCommittee(auths)
	if err != nil {
		t.Fatal(err)
	}
	hh := core.DefaultConfig()
	hh.EpochCommits = 5
	rec := newCommitRecorder(0)
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		Committee:  committee,
		Engine:     fastEngineConfig(),
		Latency:    simnet.Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		HammerHead: &hh,
		OnCommit:   rec.hook,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)

	// Stake-proportional leadership: v0 must lead ≈4x as often as a 1-stake
	// validator across the initial schedule's slot cycle.
	m := cluster.Engine(0).Scheduler().(*core.Manager)
	slots := m.History().Schedules()[0].SlotsOf()
	if slots[0] != 4 {
		t.Fatalf("heavy validator holds %d slots per cycle, want 4", slots[0])
	}
	if len(rec.anchors[0]) < 5 {
		t.Fatalf("only %d commits", len(rec.anchors[0]))
	}

	// Phase 2: crash the heavy validator mid-run and let the schedule react —
	// the §1 "major validator under maintenance" story.
	cluster.CrashAt(0, 20*time.Second)
	cluster.Sim.RunFor(40 * time.Second)

	obs := cluster.Engine(1)
	m1 := obs.Scheduler().(*core.Manager)
	if m1.SwitchCount() == 0 {
		t.Fatal("no schedule switch after the heavy validator crashed")
	}
	last := m1.Decisions()[m1.SwitchCount()-1]
	// The swap budget is f = 3 < stake(v0) = 4: the heavy validator does NOT
	// fit the B budget (the paper's "at most f validators by stake"), so its
	// slots cannot be reassigned — the algorithmic limit of reputation
	// swaps for overweight validators.
	var badStake types.Stake
	for _, id := range last.Bad {
		badStake += committee.Stake(id)
		if id == 0 {
			t.Fatalf("v0 (stake 4) exceeds the swap budget f=3 and must not be in B, got %v", last.Bad)
		}
	}
	if badStake > committee.MaxFaultyStake() {
		t.Fatalf("B stake %d exceeds budget %d", badStake, committee.MaxFaultyStake())
	}
	// Liveness continues regardless: remaining validators keep committing
	// (v0's anchor rounds time out, bounded by the leader timeout).
	late := len(rec.anchors[1])
	if late < 10 {
		t.Fatalf("only %d commits with the heavy validator down", late)
	}
	// Safety throughout.
	for i := 2; i < 9; i++ {
		if !prefixConsistent(rec.anchors[1], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("weighted committee commits diverge (v%d)", i)
		}
	}
}
