package node

import (
	"testing"

	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/leader"
	"hammerhead/internal/metrics"
	"hammerhead/internal/types"
)

// TestReputationGaugeFallsToZero publishes a scheduler state whose latest
// swap scored v3, then one whose scores omit v3, as they omit every
// validator that scored 0: v3's gauge must read 0, not its last score.
func TestReputationGaugeFallsToZero(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.DefaultConfig()
	eng.VerifySignatures = false
	// Shoal scoring with one-commit epochs: each switch scores exactly the
	// source of the one anchor ordered in the ending epoch.
	hh := core.DefaultConfig()
	hh.EpochCommits = 1
	hh.Scoring = core.ScoringShoal
	reg := metrics.NewRegistry()
	nd, err := New(Config{Committee: committee, Keys: kp, Engine: eng, HammerHead: &hh, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nd.Close() }()
	gauge := reg.LabeledGauge("hammerhead_reputation_score", metrics.Label{Name: "validator", Value: "3"})

	m, err := core.NewManager(committee, dag.New(committee), hh, 0)
	if err != nil {
		t.Fatal(err)
	}
	// order ends the running epoch at round r and orders an anchor of src
	// there; the export carries the scores of the epoch that ended.
	order := func(r types.Round, src types.ValidatorID) *core.ManagerState {
		m.MaybeSwitch(leader.AnchorInfo{Round: r, Source: src})
		m.OnAnchorOrdered(leader.AnchorInfo{Round: r, Source: src})
		return m.ExportState().(*core.ManagerState)
	}
	order(2, 3)
	st := order(4, 0)
	nd.publishSchedulerState(st)
	if got := gauge.Value(); got != 1 || st.Scores()[3] != 1 {
		t.Fatalf("v3's gauge reads %d after a swap that scored it %d, want 1", got, st.Scores()[3])
	}
	st = order(6, 0)
	if _, ok := st.Scores()[3]; ok {
		t.Fatalf("scores %v still name v3", st.Scores())
	}
	nd.publishSchedulerState(st)
	if got := gauge.Value(); got != 0 {
		t.Fatalf("v3's gauge reads %d after a swap that scored it 0", got)
	}
}
