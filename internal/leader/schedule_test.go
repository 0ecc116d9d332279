package leader

import (
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

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

func TestNewScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(1, []types.ValidatorID{0}); err == nil {
		t.Fatal("odd initial round must be rejected")
	}
	if _, err := NewSchedule(0, nil); err == nil {
		t.Fatal("empty slots must be rejected")
	}
}

func TestScheduleLeaderAtCycle(t *testing.T) {
	s, err := NewSchedule(10, []types.ValidatorID{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		round types.Round
		want  types.ValidatorID
	}{
		{10, 3}, {12, 1}, {14, 2}, {16, 3}, {18, 1},
	}
	for _, tc := range cases {
		if got := s.LeaderAt(tc.round); got != tc.want {
			t.Errorf("LeaderAt(%d) = %s, want %s", tc.round, got, tc.want)
		}
	}
	if got := s.LeaderAt(11); got != types.NoValidator {
		t.Errorf("odd round must have no leader, got %s", got)
	}
	if got := s.LeaderAt(8); got != types.NoValidator {
		t.Errorf("round before InitialRound must have no leader here, got %s", got)
	}
}

func TestBaseSlotsStakeProportional(t *testing.T) {
	c, err := types.NewCommittee([]types.Authority{
		{ID: 0, Stake: 3}, {ID: 1, Stake: 1}, {ID: 2, Stake: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := BaseSlots(c)
	if len(slots) != 6 {
		t.Fatalf("cycle length = %d, want total stake 6", len(slots))
	}
	counts := map[types.ValidatorID]int{}
	for _, id := range slots {
		counts[id]++
	}
	if counts[0] != 3 || counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("slot counts %v not stake proportional", counts)
	}
}

func TestInitialScheduleDeterministic(t *testing.T) {
	c := equalCommittee(t, 10)
	s1 := NewInitialSchedule(c, 42)
	s2 := NewInitialSchedule(c, 42)
	s3 := NewInitialSchedule(c, 43)
	a, b := s1.Slots(), s2.Slots()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce identical schedules")
		}
	}
	differs := false
	for i, id := range s3.Slots() {
		if id != a[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("different seeds should produce different permutations (10! >> 1)")
	}
}

func TestInitialSchedulePreservesSlotCounts(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		c, err := types.NewEqualStakeCommittee(n)
		if err != nil {
			return false
		}
		s := NewInitialSchedule(c, seed)
		counts := s.SlotsOf()
		if len(counts) != n {
			return false
		}
		for _, got := range counts {
			if got != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryAtAndLeaderAt(t *testing.T) {
	s0, _ := NewSchedule(0, []types.ValidatorID{0, 1})
	s1, _ := NewSchedule(10, []types.ValidatorID{2, 3})
	s2, _ := NewSchedule(20, []types.ValidatorID{4})
	h := NewHistory(s0)
	if err := h.Append(s1); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(s2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		round types.Round
		want  *Schedule
	}{
		{0, s0}, {8, s0}, {9, s0}, {10, s1}, {18, s1}, {19, s1}, {20, s2}, {1000, s2},
	}
	for _, tc := range cases {
		if got := h.At(tc.round); got != tc.want {
			t.Errorf("At(%d) = schedule@%d, want schedule@%d", tc.round, got.InitialRound(), tc.want.InitialRound())
		}
	}
	// Retroactive lookups: round 8 still resolves under s0 even though s2 is active.
	if got := h.LeaderAt(8); got != 0 {
		t.Errorf("LeaderAt(8) = %s, want v0", got)
	}
	if got := h.LeaderAt(12); got != 3 {
		t.Errorf("LeaderAt(12) = %s, want v3", got)
	}
	if h.Active() != s2 {
		t.Error("Active must be the last appended schedule")
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
}

func TestHistoryAppendRejectsNonMonotonic(t *testing.T) {
	s0, _ := NewSchedule(10, []types.ValidatorID{0})
	h := NewHistory(s0)
	same, _ := NewSchedule(10, []types.ValidatorID{1})
	if err := h.Append(same); err == nil {
		t.Fatal("appending a schedule at the same round must fail")
	}
	earlier, _ := NewSchedule(8, []types.ValidatorID{1})
	if err := h.Append(earlier); err == nil {
		t.Fatal("appending an earlier schedule must fail")
	}
}

func TestRoundRobinSchedulerStable(t *testing.T) {
	c := equalCommittee(t, 4)
	rr := NewRoundRobin(c, 7)
	if rr.MaybeSwitch(AnchorInfo{Round: 1000, Source: 0}) {
		t.Fatal("round robin must never switch")
	}
	rr.OnAnchorOrdered(AnchorInfo{Round: 2, Source: 1})
	// All anchor rounds resolve; each validator leads once per cycle of 4.
	seen := map[types.ValidatorID]int{}
	for r := types.Round(0); r < 8; r += 2 {
		id := rr.LeaderAt(r)
		if id == types.NoValidator {
			t.Fatalf("round %d has no leader", r)
		}
		seen[id]++
	}
	if len(seen) != 4 {
		t.Fatalf("4-round cycle must cover all 4 validators, got %v", seen)
	}
	if rr.History().Len() != 1 {
		t.Fatal("baseline history must hold exactly one schedule")
	}

	// Its checkpoint state is itself and encodes to nothing, so round-robin
	// checkpoints carry no scheduler bytes.
	enc, err := rr.ExportState().Encode()
	if err != nil || len(enc) != 0 {
		t.Fatalf("round-robin export encodes to %x (err %v), want nothing", enc, err)
	}
	if err := rr.RestoreState(enc); err != nil {
		t.Fatalf("round robin refused its own empty state: %v", err)
	}
	// A HammerHead state (core's pinned ManagerState encoding) is refused.
	hammerhead, err := hex.DecodeString("020200000000000000000400000000000000010000000200000003000000000000000c04000000000000000100000003000000030400000000000000010000000200000003040400000000060000000104000000020100000003d80400000000000000100102010000000204000000000a000000010a0000000200000000030c")
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.RestoreState(hammerhead); err == nil {
		t.Fatal("round robin accepted a HammerHead scheduler state")
	}
	// It reads nothing from the DAG, so it never clamps a pruning floor.
	for _, floor := range []types.Round{0, 1000, math.MaxUint64 - 1} {
		if m := rr.MinRetainedRound(); m <= floor {
			t.Fatalf("round robin clamps floor %d to %d", floor, m)
		}
	}
	if m := rr.ExportState().MinRetainedRound(); m != rr.MinRetainedRound() {
		t.Fatalf("round-robin export retains from %d, the scheduler from %d", m, rr.MinRetainedRound())
	}
}

func TestHistoryAtProperty(t *testing.T) {
	// Property: for any round, At returns the schedule with the greatest
	// InitialRound <= round among those installed.
	s0, _ := NewSchedule(0, []types.ValidatorID{0})
	h := NewHistory(s0)
	bounds := []types.Round{4, 10, 16, 30, 100}
	for _, b := range bounds {
		s, _ := NewSchedule(b, []types.ValidatorID{types.ValidatorID(b)})
		if err := h.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	f := func(r uint16) bool {
		round := types.Round(r)
		got := h.At(round)
		var want types.Round
		for _, b := range append([]types.Round{0}, bounds...) {
			if b <= round {
				want = b
			}
		}
		return got.InitialRound() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
