package core

import (
	"bytes"
	"reflect"
	"testing"

	"hammerhead/internal/dag/dagtest"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

func equalCommittee(t *testing.T, n int) *types.Committee {
	t.Helper()
	c, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(*Config) {}, false},
		{"zero commits", func(c *Config) { c.EpochCommits = 0 }, true},
		{"bad scoring", func(c *Config) { c.Scoring = 99 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestComputeSwapBasic(t *testing.T) {
	c := equalCommittee(t, 4)
	slots := []types.ValidatorID{0, 1, 2, 3}
	scores := Scores{0: 5, 1: 0, 2: 5, 3: 0}
	newSlots, decision := computeSwap(c, slots, scores, 1)

	// B: lowest score, ties by ID -> v1. G: highest score, ties by ID -> v0.
	if !reflect.DeepEqual(decision.Bad, []types.ValidatorID{1}) {
		t.Fatalf("Bad = %v, want [v1]", decision.Bad)
	}
	if !reflect.DeepEqual(decision.Good, []types.ValidatorID{0}) {
		t.Fatalf("Good = %v, want [v0]", decision.Good)
	}
	want := []types.ValidatorID{0, 0, 2, 3}
	if !reflect.DeepEqual(newSlots, want) {
		t.Fatalf("newSlots = %v, want %v", newSlots, want)
	}
	// Input must not be mutated.
	if !reflect.DeepEqual(slots, []types.ValidatorID{0, 1, 2, 3}) {
		t.Fatal("input slots were mutated")
	}
}

func TestComputeSwapRoundRobinReplacement(t *testing.T) {
	c := equalCommittee(t, 7) // f = 2
	slots := []types.ValidatorID{0, 1, 2, 3, 4, 5, 6}
	scores := Scores{0: 9, 1: 9, 2: 0, 3: 0, 4: 8, 5: 7, 6: 6}
	newSlots, decision := computeSwap(c, slots, scores, 2)

	if !reflect.DeepEqual(decision.Bad, []types.ValidatorID{2, 3}) {
		t.Fatalf("Bad = %v, want [v2 v3]", decision.Bad)
	}
	if !reflect.DeepEqual(decision.Good, []types.ValidatorID{0, 1}) {
		t.Fatalf("Good = %v, want [v0 v1]", decision.Good)
	}
	// Slots of v2 and v3 are replaced round-robin through G = (0, 1).
	want := []types.ValidatorID{0, 1, 0, 1, 4, 5, 6}
	if !reflect.DeepEqual(newSlots, want) {
		t.Fatalf("newSlots = %v, want %v", newSlots, want)
	}
}

func TestComputeSwapStakeBudget(t *testing.T) {
	// Weighted committee: total 9, f = 2. The worst scorer has stake 3 and
	// does not fit the budget; the next two (stake 1 each) do.
	c, err := types.NewCommittee([]types.Authority{
		{ID: 0, Stake: 3}, {ID: 1, Stake: 1}, {ID: 2, Stake: 1}, {ID: 3, Stake: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	scores := Scores{0: 0, 1: 1, 2: 2, 3: 10}
	_, decision := computeSwap(c, leader.BaseSlots(c), scores, c.MaxFaultyStake())
	if !reflect.DeepEqual(decision.Bad, []types.ValidatorID{1, 2}) {
		t.Fatalf("Bad = %v, want [v1 v2] (v0's stake exceeds the budget)", decision.Bad)
	}
}

func TestComputeSwapEmptyWhenBudgetZero(t *testing.T) {
	c := equalCommittee(t, 4)
	slots := []types.ValidatorID{0, 1, 2, 3}
	newSlots, decision := computeSwap(c, slots, Scores{}, 0)
	if len(decision.Bad) != 0 || len(decision.Good) != 0 {
		t.Fatalf("zero budget must swap nobody, got B=%v G=%v", decision.Bad, decision.Good)
	}
	if !reflect.DeepEqual(newSlots, slots) {
		t.Fatal("slots must be unchanged")
	}
}

func TestComputeSwapDisjointSets(t *testing.T) {
	c := equalCommittee(t, 10)
	scores := Scores{}
	for i := types.ValidatorID(0); i < 10; i++ {
		scores[i] = int64(i)
	}
	_, decision := computeSwap(c, leader.BaseSlots(c), scores, c.MaxFaultyStake())
	inBad := map[types.ValidatorID]bool{}
	for _, id := range decision.Bad {
		inBad[id] = true
	}
	for _, id := range decision.Good {
		if inBad[id] {
			t.Fatalf("validator %s in both B and G", id)
		}
	}
	if len(decision.Bad) != len(decision.Good) {
		t.Fatalf("|B| = %d != |G| = %d", len(decision.Bad), len(decision.Good))
	}
}

// buildVotingDAG grows `rounds` full rounds where every producer links every
// previous-round vertex; crashed validators produce nothing from their crash
// round on.
func buildVotingDAG(t *testing.T, n int, rounds types.Round, crashedFrom map[types.ValidatorID]types.Round) *dagtest.Builder {
	t.Helper()
	b := dagtest.NewBuilder(equalCommittee(t, n))
	for r := types.Round(1); r <= rounds; r++ {
		var producers []types.ValidatorID
		for _, id := range b.Committee.ValidatorIDs() {
			if from, crashed := crashedFrom[id]; crashed && r >= from {
				continue
			}
			producers = append(producers, id)
		}
		b.AddFullRound(r, producers)
	}
	return b
}

func TestComputeVoteScoresFullParticipation(t *testing.T) {
	b := buildVotingDAG(t, 4, 4, nil)
	sched, _ := leader.NewSchedule(0, []types.ValidatorID{0, 1, 2, 3})
	history := leader.NewHistory(sched)

	// Anchor at round 4 is led by LeaderAt(4) = v2 (slot index 2).
	anchor := b.Vertex(4, history.LeaderAt(4))
	scores := computeVoteScores(b.DAG, history, anchor, 0)

	// Odd rounds in the anchor's history: 1 and 3; every validator voted in
	// both (full links), so everyone scores 2.
	for _, id := range b.Committee.ValidatorIDs() {
		if scores[id] != 2 {
			t.Fatalf("score[%s] = %d, want 2 (full participation)", id, scores[id])
		}
	}
}

func TestComputeVoteScoresCrashedValidatorScoresZero(t *testing.T) {
	crashed := map[types.ValidatorID]types.Round{3: 1}
	b := buildVotingDAG(t, 4, 6, crashed)
	sched, _ := leader.NewSchedule(0, []types.ValidatorID{0, 1, 2, 0}) // v3 never leads
	history := leader.NewHistory(sched)

	anchor := b.Vertex(6, history.LeaderAt(6))
	scores := computeVoteScores(b.DAG, history, anchor, 0)
	if scores[3] != 0 {
		t.Fatalf("crashed validator score = %d, want 0", scores[3])
	}
	for _, id := range []types.ValidatorID{0, 1, 2} {
		if scores[id] != 3 { // odd rounds 1, 3, 5
			t.Fatalf("score[%s] = %d, want 3", id, scores[id])
		}
	}
}

func TestComputeVoteScoresRespectsEpochStart(t *testing.T) {
	b := buildVotingDAG(t, 4, 6, nil)
	sched, _ := leader.NewSchedule(0, []types.ValidatorID{0, 1, 2, 3})
	history := leader.NewHistory(sched)

	anchor := b.Vertex(6, history.LeaderAt(6))
	scores := computeVoteScores(b.DAG, history, anchor, 4)
	// Only odd round 5 is inside [4, 6].
	for _, id := range b.Committee.ValidatorIDs() {
		if scores[id] != 1 {
			t.Fatalf("score[%s] = %d, want 1 (only round 5 votes count)", id, scores[id])
		}
	}
}

func TestComputeVoteScoresMissedVote(t *testing.T) {
	// Round 3 voters avoid the round-2 leader's vertex: nobody scores for
	// round 3, but round 1 votes still count.
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	sched, _ := leader.NewSchedule(0, []types.ValidatorID{0, 1, 2, 3})
	history := leader.NewHistory(sched)

	b.AddFullRound(1, nil)
	b.AddFullRound(2, nil)
	leader2 := history.LeaderAt(2) // v1
	b.AddRoundAvoiding(3, nil, map[types.ValidatorID]bool{leader2: true})
	b.AddFullRound(4, nil)

	anchor := b.Vertex(4, history.LeaderAt(4))
	scores := computeVoteScores(b.DAG, history, anchor, 0)
	for _, id := range c.ValidatorIDs() {
		if scores[id] != 1 {
			t.Fatalf("score[%s] = %d, want 1 (round-3 votes skipped the leader)", id, scores[id])
		}
	}
}

func driveManager(t *testing.T, m *Manager, b *dagtest.Builder, maxRound types.Round) {
	t.Helper()
	for r := types.Round(2); r <= maxRound; r += 2 {
		id := m.LeaderAt(r)
		if _, ok := b.Rounds[r][id]; !ok {
			continue // leader crashed: anchor skipped
		}
		info := leader.AnchorInfo{Round: r, Source: id}
		if m.MaybeSwitch(info) {
			// Re-evaluate the same round under the new schedule, as the
			// committer would.
			id = m.LeaderAt(r)
			if _, ok := b.Rounds[r][id]; !ok {
				continue
			}
			info = leader.AnchorInfo{Round: r, Source: id}
		}
		m.OnAnchorOrdered(info)
	}
}

func TestManagerCommitsPolicySwitches(t *testing.T) {
	b := buildVotingDAG(t, 4, 20, nil)
	cfg := DefaultConfig()
	cfg.EpochCommits = 3
	m, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveManager(t, m, b, 20)
	// 10 anchors, switch after every 3 ordered: at the 4th, 7th, 10th anchor.
	if got := m.SwitchCount(); got != 3 {
		t.Fatalf("SwitchCount = %d, want 3", got)
	}
}

func TestManagerExcludesCrashedValidator(t *testing.T) {
	crashed := map[types.ValidatorID]types.Round{2: 1}
	b := buildVotingDAG(t, 4, 30, crashed)
	cfg := DefaultConfig()
	cfg.EpochCommits = 4
	m, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveManager(t, m, b, 30)
	if m.SwitchCount() == 0 {
		t.Fatal("expected at least one switch")
	}
	excluded := m.Excluded()
	if len(excluded) != 1 || excluded[0] != 2 {
		t.Fatalf("Excluded = %v, want [v2]", excluded)
	}
	// After the swap, v2 must hold no slots in the active schedule.
	if got := m.History().Active().SlotsOf()[2]; got != 0 {
		t.Fatalf("crashed validator still holds %d slots", got)
	}
}

func TestManagerDeterministicAcrossInstances(t *testing.T) {
	// Two managers over the same committed prefix must hold byte-identical
	// states after every ordered anchor — the heart of Schedule Agreement
	// (Proposition 1), and what every commit carries to a checkpoint.
	crashed := map[types.ValidatorID]types.Round{1: 5}
	b := buildVotingDAG(t, 7, 40, crashed)
	cfg := DefaultConfig()
	cfg.EpochCommits = 4
	m1, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(2); r <= 40; r += 2 {
		driveManagerRange(t, m1, b, r, r)
		driveManagerRange(t, m2, b, r, r)
		s1, err := m1.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := m2.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Fatalf("states differ after the anchor at round %d", r)
		}
	}
	if m1.SwitchCount() == 0 {
		t.Fatal("prefix produced no switches; test lost its teeth")
	}
}

func TestManagerShoalScoring(t *testing.T) {
	b := buildVotingDAG(t, 4, 8, nil)
	cfg := DefaultConfig()
	cfg.Scoring = ScoringShoal
	cfg.EpochCommits = 100 // never switch during this test
	m, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Order anchors at rounds 2 and 6, skipping round 4.
	a2 := leader.AnchorInfo{Round: 2, Source: m.LeaderAt(2)}
	a6 := leader.AnchorInfo{Round: 6, Source: m.LeaderAt(6)}
	skipped := m.LeaderAt(4)
	m.OnAnchorOrdered(a2)
	m.OnAnchorOrdered(a6)

	if got := m.st.shoalScores[a2.Source] + m.st.shoalScores[a6.Source]; a2.Source == a6.Source && got != 2 {
		t.Fatalf("committed leader total = %d, want 2", got)
	}
	if m.st.shoalScores[skipped] >= 0 && skipped != a2.Source && skipped != a6.Source {
		t.Fatalf("skipped leader score = %d, want negative", m.st.shoalScores[skipped])
	}
}

func TestManagerMinRetainedRound(t *testing.T) {
	b := buildVotingDAG(t, 4, 30, nil)
	cfg := DefaultConfig()
	cfg.EpochCommits = 4
	m, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MinRetainedRound(); got != 0 {
		t.Fatalf("MinRetainedRound before any switch = %d, want 0", got)
	}
	driveManager(t, m, b, 30)
	if m.SwitchCount() == 0 {
		t.Fatal("expected at least one switch")
	}
	active := m.History().Active().InitialRound()
	if got := m.MinRetainedRound(); got != active-1 {
		t.Fatalf("MinRetainedRound = %d, want %d", got, active-1)
	}
}

func TestManagerSwapFromBaseReintegration(t *testing.T) {
	// A validator crashed in epoch 1 loses its slots; once it recovers and
	// votes again, the memoryless swap restores its base slots.
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	crashedRounds := map[types.Round]bool{}
	for r := types.Round(1); r <= 12; r++ {
		crashedRounds[r] = true // v3 down for rounds 1..12
	}
	for r := types.Round(1); r <= 40; r++ {
		producers := []types.ValidatorID{0, 1, 2}
		if !crashedRounds[r] {
			producers = append(producers, 3)
		}
		b.AddFullRound(r, producers)
	}
	cfg := DefaultConfig()
	cfg.EpochCommits = 4
	m, err := NewManager(b.Committee, b.DAG, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first []types.ValidatorID
	for r := types.Round(2); r <= 40; r += 2 {
		driveManagerRange(t, m, b, r, r)
		if first == nil && m.SwitchCount() == 1 {
			first = m.Excluded()
		}
	}

	if m.SwitchCount() < 3 {
		t.Fatalf("SwitchCount = %d, want >= 3", m.SwitchCount())
	}
	if len(first) != 1 || first[0] != 3 {
		t.Fatalf("first epoch Bad = %v, want [v3]", first)
	}
	// By the last epoch v3 has been voting for a full epoch again: its
	// base slots must be restored (it is no longer in B).
	for _, id := range m.Excluded() {
		if id == 3 {
			t.Fatalf("recovered validator still excluded by the latest swap: %v", m.Excluded())
		}
	}
	if got := m.History().Active().SlotsOf()[3]; got != 1 {
		t.Fatalf("recovered validator holds %d slots, want 1", got)
	}
}
