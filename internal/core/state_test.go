package core

import (
	"bytes"
	"reflect"
	"testing"

	"hammerhead/internal/leader"
	"hammerhead/internal/types"

	"hammerhead/internal/dag/dagtest"
)

// driveManagerRange is driveManager over an explicit anchor-round window, so
// restore tests can resume a manager mid-history.
func driveManagerRange(t *testing.T, m *Manager, b *dagtest.Builder, from, to types.Round) {
	t.Helper()
	for r := from; r <= to; r += 2 {
		id := m.LeaderAt(r)
		if _, ok := b.Rounds[r][id]; !ok {
			continue
		}
		info := leader.AnchorInfo{Round: r, Source: id}
		if m.MaybeSwitch(info) {
			id = m.LeaderAt(r)
			if _, ok := b.Rounds[r][id]; !ok {
				continue
			}
			info = leader.AnchorInfo{Round: r, Source: id}
		}
		m.OnAnchorOrdered(info)
	}
}

func TestManagerStateEncodeDecodeRoundTrip(t *testing.T) {
	crashed := map[types.ValidatorID]types.Round{2: 1}
	b := buildVotingDAG(t, 4, 30, crashed)
	cfg := DefaultConfig()
	cfg.EpochCommits = 3
	cfg.Scoring = ScoringShoal
	m, err := NewManager(b.Committee, b.DAG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveManagerRange(t, m, b, 2, 30)
	if m.SwitchCount() == 0 {
		t.Fatal("prefix produced no switches; test lost its teeth")
	}

	exported := m.ExportState().(*ManagerState)
	data, err := exported.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeManagerState(data)
	if err != nil {
		t.Fatal(err)
	}

	if decoded.Epoch() != exported.Epoch() {
		t.Fatalf("Epoch = %d, want %d", decoded.Epoch(), exported.Epoch())
	}
	if decoded.EpochStartRound() != exported.EpochStartRound() {
		t.Fatalf("EpochStartRound = %d, want %d", decoded.EpochStartRound(), exported.EpochStartRound())
	}
	if decoded.CommitsThisEpoch() != exported.CommitsThisEpoch() {
		t.Fatalf("CommitsThisEpoch = %d, want %d", decoded.CommitsThisEpoch(), exported.CommitsThisEpoch())
	}
	if decoded.MinRetainedRound() != exported.MinRetainedRound() {
		t.Fatalf("MinRetainedRound = %d, want %d", decoded.MinRetainedRound(), exported.MinRetainedRound())
	}
	if !reflect.DeepEqual(decoded.Excluded(), exported.Excluded()) {
		t.Fatalf("Excluded = %v, want %v", decoded.Excluded(), exported.Excluded())
	}
	if !reflect.DeepEqual(decoded.Scores(), exported.Scores()) {
		t.Fatalf("Scores = %v, want %v", decoded.Scores(), exported.Scores())
	}
	if !reflect.DeepEqual(decoded.shoalScores, exported.shoalScores) {
		t.Fatalf("shoalScores = %v, want %v", decoded.shoalScores, exported.shoalScores)
	}
	for r := exported.MinRetainedRound() + 1; r <= 40; r++ {
		if got, want := decoded.LeaderAt(r), exported.LeaderAt(r); got != want {
			t.Fatalf("LeaderAt(%d) = %s, want %s", r, got, want)
		}
	}
}

func TestManagerStateEncodingDeterministic(t *testing.T) {
	// Two managers over the same committed prefix must export byte-identical
	// states — score maps are flattened into sorted slices precisely so that
	// map iteration order cannot leak into checkpoint bytes (which feed state
	// digests peers compare).
	b := buildVotingDAG(t, 7, 40, map[types.ValidatorID]types.Round{1: 5})
	cfg := DefaultConfig()
	cfg.EpochCommits = 4
	cfg.Scoring = ScoringShoal
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		m, err := NewManager(b.Committee, b.DAG, cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveManagerRange(t, m, b, 2, 40)
		data, err := m.ExportState().(*ManagerState).Encode()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, data)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("equal states encoded to different bytes")
	}
}

func TestDecodeManagerStateRejectsGarbage(t *testing.T) {
	if _, err := DecodeManagerState(nil); err == nil {
		t.Fatal("empty state must not decode")
	}
	if _, err := DecodeManagerState([]byte{0x7F, 1, 2, 3}); err == nil {
		t.Fatal("unknown version tag must not decode")
	}
	if _, err := DecodeManagerState([]byte{0x01, 0xDE, 0xAD}); err == nil {
		t.Fatal("retired gob-body tag must not decode")
	}

	b := buildVotingDAG(t, 4, 10, nil)
	m, err := NewManager(b.Committee, b.DAG, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.ExportState().(*ManagerState).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManagerState(data[:len(data)/2]); err == nil {
		t.Fatal("truncated state must not decode")
	}
	// RestoreState must be all-or-nothing: a failed restore leaves the
	// manager untouched.
	before := m.LeaderAt(6)
	if err := m.RestoreState(data[:len(data)/2]); err == nil {
		t.Fatal("restore of a truncated state must fail")
	}
	if got := m.LeaderAt(6); got != before {
		t.Fatalf("failed restore mutated the manager: LeaderAt(6) %s -> %s", before, got)
	}
}

// TestManagerRestoreResumesIdentically is Proposition 1 for the recovery
// path: a manager restored from an exported prefix state and then driven
// with the remaining anchor sequence must derive a bit-equal schedule
// history to a manager that observed the whole prefix live — including the
// partially accumulated Shoal scores and skipped-anchor penalties the
// export carries.
func TestManagerRestoreResumesIdentically(t *testing.T) {
	crashed := map[types.ValidatorID]types.Round{3: 9}
	b := buildVotingDAG(t, 7, 60, crashed)
	cfg := DefaultConfig()
	cfg.EpochCommits = 4
	cfg.Scoring = ScoringShoal

	full, err := NewManager(b.Committee, b.DAG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveManagerRange(t, full, b, 2, 60)

	prefix, err := NewManager(b.Committee, b.DAG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const cut = types.Round(30)
	driveManagerRange(t, prefix, b, 2, cut)
	data, err := prefix.ExportState().(*ManagerState).Encode()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := NewManager(b.Committee, b.DAG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	restored.FastForwardTo(cut) // the engine's jump; must be a no-op here
	driveManagerRange(t, restored, b, cut+2, 60)

	if got, want := restored.SwitchCount(), full.SwitchCount(); got != want {
		t.Fatalf("SwitchCount = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(restored.shoalScores, full.shoalScores) {
		t.Fatalf("shoalScores diverged: %v vs %v", restored.shoalScores, full.shoalScores)
	}
	if !reflect.DeepEqual(restored.Excluded(), full.Excluded()) {
		t.Fatalf("Excluded diverged: %v vs %v", restored.Excluded(), full.Excluded())
	}
	// Bit-equal leader sequence over the window both histories retain.
	from := restored.History().Schedules()[0].InitialRound()
	if from < 2 {
		from = 2
	}
	for r := from; r <= 70; r++ {
		if got, want := restored.LeaderAt(r), full.LeaderAt(r); got != want {
			t.Fatalf("LeaderAt(%d) = %s, want %s", r, got, want)
		}
	}
}

func TestManagerFastForwardTo(t *testing.T) {
	b := buildVotingDAG(t, 4, 10, nil)
	cfg := DefaultConfig()
	cfg.Scoring = ScoringShoal
	m, err := NewManager(b.Committee, b.DAG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveManagerRange(t, m, b, 2, 10)

	// Jumping backwards (or to the current cursor) is a no-op.
	before := m.shoalScores.Clone()
	m.FastForwardTo(4)
	if !reflect.DeepEqual(m.shoalScores, before) {
		t.Fatal("backward fast-forward mutated scores")
	}
	// A forward jump advances the cursor WITHOUT skip penalties: the gap's
	// ordering history was never observed.
	m.FastForwardTo(20)
	m.OnAnchorOrdered(leader.AnchorInfo{Round: 22, Source: m.LeaderAt(22)})
	for id, score := range m.shoalScores {
		if score < before[id] {
			t.Fatalf("fast-forward gap penalized %s: %d -> %d", id, before[id], score)
		}
	}
}
