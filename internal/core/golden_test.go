package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// TestGoldenManagerState pins the bytes of the scheduler-state encoding (tag
// 02): a fixed state with two schedules and both score maps must encode to
// exactly these bytes and decode back from them. The constant was recorded
// before the gob body generation was deleted and did not move with it; a
// format revision moves it once, on purpose, together with the version tag.
func TestGoldenManagerState(t *testing.T) {
	first, err := leader.NewSchedule(0, []types.ValidatorID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	second, err := leader.NewSchedule(12, []types.ValidatorID{0, 1, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	history := leader.NewHistory(first)
	if err := history.Append(second); err != nil {
		t.Fatal(err)
	}
	st := &ManagerState{
		history:               history,
		baseSlots:             []types.ValidatorID{0, 1, 2, 3},
		commitsThisEpoch:      2,
		shoalScores:           Scores{0: 3, 1: 2, 2: -1, 3: 300},
		lastOrderedAnchor:     16,
		haveLastOrderedAnchor: true,
		switches:              1,
		excluded:              []types.ValidatorID{2},
		epochScores:           Scores{0: 5, 1: 5, 2: 0, 3: 6},
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenManagerState {
		t.Fatalf("encoding moved:\n got %s\nwant %s", got, goldenManagerState)
	}
	decoded, err := DecodeManagerState(data)
	if err != nil {
		t.Fatalf("golden state rejected: %v", err)
	}
	if !reflect.DeepEqual(decoded, st) {
		t.Fatalf("golden state decoded to a different value:\n got %+v\nwant %+v", decoded, st)
	}
}

const goldenManagerState = "020200000000000000000400000000000000010000000200000003000000000000000c04000000000000000100000003000000030400000000000000010000000200000003040400000000060000000104000000020100000003d80400000000000000100102010000000204000000000a000000010a0000000200000000030c"
