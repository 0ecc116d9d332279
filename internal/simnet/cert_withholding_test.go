package simnet

import (
	"testing"
	"time"

	"hammerhead/internal/types"
)

// TestWithholdCertsDegradesToResync pins the certificate-withholding fault:
// when every peer suppresses its DAG certificate broadcasts toward validator
// 0, the victim's DAG can only learn certified vertices through the
// request/response resync path (a different message kind, deliberately not
// suppressed). The committee keeps ordering, and the victim — noisier but
// alive — limps along on resync instead of losing liveness. Certificate
// withholding alone must degrade latency, not safety or liveness.
func TestWithholdCertsDegradesToResync(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = types.ValidatorID(0)
	run := func(withhold bool) (*Cluster, uint64) {
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
		if withhold {
			for _, id := range []types.ValidatorID{1, 2, 3} {
				cluster.WithholdCerts(id, []types.ValidatorID{victim}, time.Second)
			}
		}
		cluster.Start()
		cluster.Sim.RunFor(20 * time.Second)
		return cluster, cluster.Engine(victim).Stats().SyncRequests
	}

	healthy, healthySyncs := run(false)
	eclipsed, eclipsedSyncs := run(true)

	// The committee around the victim keeps certifying and ordering.
	counts := countBySource(eclipsed, 1)
	for _, id := range []types.ValidatorID{1, 2, 3} {
		if counts[id] < 10 {
			t.Fatalf("validator %s certified only %d vertices under cert withholding (counts=%v)", id, counts[id], counts)
		}
	}
	if got := eclipsed.Engine(1).Committer().LastOrderedRound(); got < 10 {
		t.Fatalf("committee ordered only %d rounds under cert withholding", got)
	}
	// The victim stays live: resync replaces the withheld broadcasts.
	victimOrdered := eclipsed.Engine(victim).Committer().LastOrderedRound()
	healthyOrdered := healthy.Engine(victim).Committer().LastOrderedRound()
	if victimOrdered < healthyOrdered/4 {
		t.Fatalf("victim ordered %d rounds vs %d healthy — cert withholding killed liveness instead of degrading it",
			victimOrdered, healthyOrdered)
	}
	// And it leaned on resync to do so — the fault demonstrably bit.
	if eclipsedSyncs <= healthySyncs {
		t.Fatalf("victim sync requests %d (eclipsed) <= %d (healthy): the withholding never engaged",
			eclipsedSyncs, healthySyncs)
	}
}
