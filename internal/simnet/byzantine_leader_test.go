package simnet

import (
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/types"
)

// TestHammerHeadScoresOutFaultyLeaders is the paper's §1 incident in
// miniature: a committee of 10 with one crash-faulty validator, one
// selectively-withholding Byzantine validator (its headers never reach half
// the committee, so its vertices never gather a vote quorum — it looks alive
// but its proposals never land), and one badly lagging validator. The
// reputation scheduler must strip all three of their leader slots; the
// round-robin baseline would keep re-electing them and eating the leader
// timeout every cycle.
func TestHammerHeadScoresOutFaultyLeaders(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MinRoundDelay = 30 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	// Every validator scored out by some swap, as the commits of v0 carry it.
	everBad := map[types.ValidatorID]bool{}
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       cfg,
		Latency:      Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hhConfig(6),
		ScheduleSeed: 1,
		Seed:         23,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, _ int64) {
			if node != 0 {
				return
			}
			for _, id := range sub.SchedulerState.(*core.ManagerState).Excluded() {
				everBad[id] = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		crashed    = types.ValidatorID(9)
		withholder = types.ValidatorID(8)
		laggard    = types.ValidatorID(7)
	)
	cluster.CrashAt(crashed, 2*time.Second)
	// Suppress the withholder's headers toward 5 of its 9 peers: at most 5
	// votes can ever gather (its own plus the 4 peers it still serves), short
	// of the 7-stake quorum.
	cluster.Withhold(withholder, []types.ValidatorID{0, 1, 2, 3, 4}, 2*time.Second)
	cluster.SlowDown(laggard, 8, 2*time.Second, 40*time.Second)

	cluster.Start()
	cluster.Sim.RunFor(40 * time.Second)

	if got := cluster.Engine(0).Committer().LastOrderedRound(); got < 100 {
		t.Fatalf("committee ordered only %d rounds with 3 faulty members", got)
	}
	m, ok := cluster.Engine(0).Scheduler().(*core.Manager)
	if !ok {
		t.Fatal("expected a core.Manager scheduler")
	}
	if m.SwitchCount() < 3 {
		t.Fatalf("only %d schedule switches; scoring never reacted", m.SwitchCount())
	}

	// Every faulty validator must have been scored out of at least one
	// schedule, and the steady-state exclusion set must pin the two
	// permanently faulty ones (the laggard's standing can recover when its
	// slow window ends, so it is only required in the historical record).
	for _, id := range []types.ValidatorID{crashed, withholder, laggard} {
		if !everBad[id] {
			t.Errorf("faulty validator %s was never scored out (bad sets: %v)", id, everBad)
		}
	}
	final := map[types.ValidatorID]bool{}
	for _, id := range m.Excluded() {
		final[id] = true
	}
	for _, id := range []types.ValidatorID{crashed, withholder} {
		if !final[id] {
			t.Errorf("validator %s regained leader slots in the final schedule (excluded: %v)", id, m.Excluded())
		}
	}

	// All live validators agree on the exclusion — it is a pure function of
	// the committed prefix, not a local opinion.
	for i := 0; i < 7; i++ {
		other := cluster.Engine(types.ValidatorID(i)).Scheduler().(*core.Manager)
		if other.SwitchCount() == 0 {
			t.Fatalf("v%d never switched schedules", i)
		}
	}
}
