package simnet

import (
	"testing"
	"time"

	"hammerhead/internal/types"
)

// countBySource tallies, on observer's DAG, how many vertices each validator
// certified across rounds (1, highest].
func countBySource(c *Cluster, observer types.ValidatorID) map[types.ValidatorID]int {
	d := c.Engine(observer).DAG()
	counts := make(map[types.ValidatorID]int)
	for r := types.Round(2); r <= d.HighestRound(); r++ {
		for _, v := range d.RoundVertices(r) {
			counts[v.Source]++
		}
	}
	return counts
}

// TestWithholdVotesStarvesTargetedProposer pins the vote-withholding fault
// variant: with a 4-committee (quorum 3 = self + 2 peers), two validators
// silently refusing to vote for validator 0's headers leave it at most 2
// votes, so none of its vertices ever certify — even though its headers
// reach the whole committee and the withholders look perfectly healthy.
func TestWithholdVotesStarvesTargetedProposer(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       fastSimEngineConfig(),
		Latency:      Uniform{Base: 10 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const victim = types.ValidatorID(0)
	cluster.WithholdVotes(2, []types.ValidatorID{victim}, time.Second)
	cluster.WithholdVotes(3, []types.ValidatorID{victim}, time.Second)

	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)

	counts := countBySource(cluster, 1)
	// The committee must keep certifying and ordering around the starved
	// proposer (Bullshark tolerates f=1 silent member).
	for _, id := range []types.ValidatorID{1, 2, 3} {
		if counts[id] < 10 {
			t.Fatalf("validator %s certified only %d vertices; committee did not progress (counts=%v)", id, counts[id], counts)
		}
	}
	if got := cluster.Engine(1).Committer().LastOrderedRound(); got < 10 {
		t.Fatalf("committee ordered only %d rounds around the starved proposer", got)
	}
	// The victim certified essentially nothing after the withholding kicked
	// in: allow only the handful of rounds before t=1s.
	if counts[victim] > 2*counts[1]/10 {
		t.Fatalf("victim certified %d vertices despite vote withholding (healthy peer: %d)", counts[victim], counts[1])
	}
}

// TestWithholdVotesBelowThresholdIsHarmless is the control: a single
// vote-withholder cannot push the victim below quorum (self + 2 remaining
// voters = 3), so certification proceeds for everyone.
func TestWithholdVotesBelowThresholdIsHarmless(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       fastSimEngineConfig(),
		Latency:      Uniform{Base: 10 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.WithholdVotes(3, []types.ValidatorID{0}, 0)

	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)

	counts := countBySource(cluster, 1)
	for id, n := range map[types.ValidatorID]int{0: counts[0], 1: counts[1], 2: counts[2], 3: counts[3]} {
		if n < 10 {
			t.Fatalf("validator %s certified only %d vertices under a single withholder (counts=%v)", id, n, counts)
		}
	}
}
