package simnet_test

import (
	"testing"
	"time"

	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

// TestClusterDropsInvalidSignaturesPreservesLiveness is the Byzantine-signer
// fault scenario: one validator emits garbage signatures on everything it
// sends. The pre-verify stage must absorb the entire attack — nothing
// invalid reaches any engine — while the honest quorum keeps committing
// with ordinary latency.
func TestClusterDropsInvalidSignaturesPreservesLiveness(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	engCfg := fastEngineConfig()
	engCfg.VerifySignatures = true // Ed25519 keys + pre-verify stage
	engCfg.MinRoundDelay = 100 * time.Millisecond
	rec := newCommitRecorder(0)
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:    committee,
		Engine:       engCfg,
		Latency:      simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		OnCommit:     rec.hook,
		Seed:         11,
	})
	cluster.CorruptSignatures(3, 0)
	submitLoad(cluster, 0, 50*time.Millisecond, 12*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(15 * time.Second)

	if cluster.PreVerifyDropped() == 0 {
		t.Fatal("pre-verify stage never dropped the Byzantine signer's traffic")
	}
	// The attack is absorbed before the state machine: honest engines saw
	// only valid messages, so their invalid-message counters stay zero.
	for i := 0; i < 3; i++ {
		if got := cluster.Engine(types.ValidatorID(i)).Stats().InvalidMessages; got != 0 {
			t.Fatalf("validator v%d's engine saw %d invalid messages; pre-verify leaked", i, got)
		}
	}
	// Liveness: the three honest validators form quorums without v3.
	for i := 0; i < 3; i++ {
		if len(rec.anchors[types.ValidatorID(i)]) < 5 {
			t.Fatalf("validator v%d committed only %d sub-DAGs under the signing fault",
				i, len(rec.anchors[types.ValidatorID(i)]))
		}
	}
	// Safety: prefix-consistent commit sequences.
	for i := 1; i < 3; i++ {
		if !prefixConsistent(rec.anchors[0], rec.anchors[types.ValidatorID(i)]) {
			t.Fatalf("commit sequences diverge under the signing fault (v%d)", i)
		}
	}
	// The Byzantine signer can never certify a vertex: no honest validator
	// votes for headers whose signatures fail pre-verification.
	dag0 := cluster.Engine(0).DAG()
	for r := types.Round(1); r <= dag0.HighestRound(); r++ {
		if _, ok := dag0.Get(r, 3); ok {
			t.Fatalf("v3 got a vertex certified at round %d despite forged signatures", r)
		}
	}
	// Commit latency is preserved: client transactions at the honest
	// observer still finalize with the latency of a healthy 25ms network.
	if len(rec.txLatency) == 0 {
		t.Fatal("no transactions reached finality under the signing fault")
	}
	var sum time.Duration
	for _, l := range rec.txLatency {
		sum += l
	}
	if avg := sum / time.Duration(len(rec.txLatency)); avg <= 0 || avg > 3*time.Second {
		t.Fatalf("average commit latency %v degraded under the signing fault", avg)
	}
}

// TestClusterAuthenticatedFaultlessRun sanity-checks the authenticated
// pipeline with no faults: pre-verify passes everything, engines see no
// invalid messages, and nothing is dropped.
func TestClusterAuthenticatedFaultlessRun(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	engCfg := fastEngineConfig()
	engCfg.VerifySignatures = true
	engCfg.MinRoundDelay = 100 * time.Millisecond
	rec := newCommitRecorder(0)
	cluster := newClusterWithConfig(t, simnet.ClusterConfig{
		Committee:    committee,
		Engine:       engCfg,
		Latency:      simnet.Uniform{Base: 25 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		OnCommit:     rec.hook,
		Seed:         19,
	})
	cluster.Start()
	cluster.Sim.RunFor(8 * time.Second)

	if got := cluster.PreVerifyDropped(); got != 0 {
		t.Fatalf("pre-verify dropped %d messages in a faultless run", got)
	}
	for i := 0; i < 4; i++ {
		if got := cluster.Engine(types.ValidatorID(i)).Stats().InvalidMessages; got != 0 {
			t.Fatalf("validator v%d saw %d invalid messages in a faultless run", i, got)
		}
		if len(rec.anchors[types.ValidatorID(i)]) < 5 {
			t.Fatalf("validator v%d committed only %d sub-DAGs", i, len(rec.anchors[types.ValidatorID(i)]))
		}
	}
}
