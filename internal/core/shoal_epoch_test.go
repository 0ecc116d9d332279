package core

import (
	"testing"

	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// TestShoalPenaltiesClampedToActiveEpoch is the regression test for the
// cross-epoch scoring bug: the skipped-anchor penalty walk in
// OnAnchorOrdered starts at lastOrderedAnchor+2, which can lie before the
// active schedule's initial round when a schedule switch just fired. Those
// rounds belong to the ending epoch — whose scores were already consumed and
// reset — so penalizing their leaders again in the fresh score map punished
// a skipped leader twice across the boundary.
func TestShoalPenaltiesClampedToActiveEpoch(t *testing.T) {
	committee := equalCommittee(t, 4)
	cfg := DefaultConfig()
	cfg.EpochCommits = 1
	cfg.Scoring = ScoringShoal
	m, err := NewManager(committee, dag.New(committee), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: the round-2 anchor orders; epoch clock reaches its limit.
	m.OnAnchorOrdered(leader.AnchorInfo{Round: 2, Source: m.LeaderAt(2)})

	// The next ordered anchor is at round 8 — anchors at rounds 4 and 6 were
	// skipped. The switch fires first (installing a schedule with initial
	// round 8 and resetting shoalScores), then the anchor orders under the
	// new schedule, exactly as the committer's commitChain restart does.
	skipped4, skipped6 := m.LeaderAt(4), m.LeaderAt(6)
	if !m.MaybeSwitch(leader.AnchorInfo{Round: 8, Source: m.LeaderAt(8)}) {
		t.Fatal("epoch must end after one commit")
	}
	if got := m.History().Active().InitialRound(); got != 8 {
		t.Fatalf("active schedule starts at %d, want 8", got)
	}
	anchor8 := leader.AnchorInfo{Round: 8, Source: m.LeaderAt(8)}
	m.OnAnchorOrdered(anchor8)

	// Rounds 4 and 6 predate the new epoch: their leaders must carry no
	// penalty in the fresh score map.
	for _, id := range []types.ValidatorID{skipped4, skipped6} {
		if id == anchor8.Source {
			continue // the +1 for ordering legitimately lands on the anchor
		}
		if score, ok := m.st.shoalScores[id]; ok && score < 0 {
			t.Fatalf("old-epoch skip penalty leaked into new epoch: score[%s] = %d", id, score)
		}
	}
	if got := m.st.shoalScores[anchor8.Source]; got != 1 {
		t.Fatalf("anchor credit = %d, want 1", got)
	}
	if len(m.st.shoalScores) != 1 {
		t.Fatalf("new epoch scores = %v, want only the ordered anchor's credit", m.st.shoalScores)
	}

	// Within the new epoch the penalty walk still works: ordering round 14
	// after 8 penalizes the skipped leaders of rounds 10 and 12.
	m.st.commitsThisEpoch = 0 // hold the epoch open for this assertion
	m.OnAnchorOrdered(leader.AnchorInfo{Round: 14, Source: m.LeaderAt(14)})
	penalized := 0
	for _, r := range []types.Round{10, 12} {
		if m.st.shoalScores[m.LeaderAt(r)] < 1 { // credit-holders would drop to 0
			penalized++
		}
	}
	if penalized == 0 {
		t.Fatal("in-epoch skipped anchors must still be penalized")
	}
}
