package execution

import (
	"bytes"
	"errors"
	"testing"

	"hammerhead/internal/types"
)

// fakeSchedState is a minimal leader.SchedulerState so the executor-side
// plumbing can be tested without a full core.Manager.
type fakeSchedState struct {
	floor types.Round
	blob  []byte
}

func (f fakeSchedState) Encode() ([]byte, error)                { return f.blob, nil }
func (f fakeSchedState) MinRetainedRound() types.Round          { return f.floor }
func (f fakeSchedState) LeaderAt(types.Round) types.ValidatorID { return types.NoValidator }

func TestCheckpointCarriesSchedulerState(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	state := fakeSchedState{floor: 3, blob: []byte("sched-v1")}
	for seq := uint64(1); seq <= 10; seq++ {
		c := makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))})
		c.SchedulerState = state
		x.ApplyCommit(c)
	}
	snap, err := x.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.SchedulerState, state.blob) {
		t.Fatalf("checkpoint scheduler state = %q, want %q", snap.SchedulerState, state.blob)
	}
	// The boundary window would float at appliedRound+1-boundaryRounds = 5,
	// but the scheduler still needs to scan back to round 3 — the floor must
	// be clamped down to the state's retention floor.
	if snap.Floor != 3 {
		t.Fatalf("snapshot floor = %d, want clamp to scheduler floor 3", snap.Floor)
	}

	// The state survives the wire round trip byte-for-byte.
	enc, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.SchedulerState, state.blob) {
		t.Fatalf("decoded scheduler state = %q, want %q", dec.SchedulerState, state.blob)
	}
}

func TestInstallFromWireRequiresSchedulerState(t *testing.T) {
	// A producer running the round-robin baseline cuts a checkpoint whose
	// scheduler state is empty.
	producer := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	for seq := uint64(1); seq <= 4; seq++ {
		producer.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
	}
	if _, err := producer.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	meta, blob, ok := producer.LatestSnapshot()
	if !ok {
		t.Fatal("producer has no snapshot to serve")
	}

	// A HammerHead node's scheduler refuses the empty state, and the install
	// is refused BEFORE the ledger is adopted — jumping to a snapshot without
	// the schedule it was cut under would silently degrade the scheduler.
	var restored [][]byte
	restore := func(data []byte) error {
		if len(data) == 0 {
			return errors.New("no scheduler state")
		}
		restored = append(restored, data)
		return nil
	}
	strict := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	if _, err := strict.InstallFromWire(meta, blob, restore); err == nil {
		t.Fatal("stateless snapshot must be rejected when the scheduler refuses its state")
	}
	if strict.AppliedSeq() != 0 {
		t.Fatalf("rejected install advanced the executor to seq %d", strict.AppliedSeq())
	}

	// The same snapshot from a HammerHead producer installs, and the
	// scheduler is restored from its encoded state.
	state := fakeSchedState{floor: 1, blob: []byte("sched-state")}
	upgraded := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	for seq := uint64(1); seq <= 4; seq++ {
		c := makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))})
		c.SchedulerState = state
		upgraded.ApplyCommit(c)
	}
	if _, err := upgraded.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	meta2, blob2, ok := upgraded.LatestSnapshot()
	if !ok {
		t.Fatal("upgraded producer has no snapshot to serve")
	}
	if _, err := strict.InstallFromWire(meta2, blob2, restore); err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || !bytes.Equal(restored[0], state.blob) {
		t.Fatalf("scheduler restored from %q, want once from %q", restored, state.blob)
	}
	if strict.AppliedSeq() != 4 {
		t.Fatalf("install did not adopt the snapshot: seq %d", strict.AppliedSeq())
	}

	// Re-checkpointing immediately after an install (before any fresh commit
	// carries a live export) must propagate the installed state onward, so a
	// chain of recovering nodes never drops it.
	resnap, err := strict.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resnap.SchedulerState, state.blob) {
		t.Fatalf("re-cut checkpoint lost the installed scheduler state: %q", resnap.SchedulerState)
	}
}
