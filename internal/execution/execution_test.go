package execution

import (
	"bytes"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/dag"
	"hammerhead/internal/types"
)

// makeCommit builds a synthetic commit: seq, an anchor at round, and one
// vertex per payload list entry (the anchor carries the last list).
func makeCommit(seq uint64, round types.Round, payloads ...[][]byte) bullshark.CommittedSubDAG {
	var vertices []*dag.Vertex
	for i, plist := range payloads {
		batch := &types.Batch{}
		for j, p := range plist {
			batch.Transactions = append(batch.Transactions, types.Transaction{
				ID:      seq*1000 + uint64(i)*100 + uint64(j),
				Payload: p,
			})
		}
		vertices = append(vertices, dag.NewVertex(round-1, types.ValidatorID(i), nil, batch, 0))
	}
	anchor := dag.NewVertex(round, 0, nil, nil, 0)
	vertices = append(vertices, anchor)
	return bullshark.CommittedSubDAG{Index: seq, Anchor: anchor, Vertices: vertices}
}

func TestKVStateOps(t *testing.T) {
	s := NewKVState()
	s.Apply(&types.Transaction{Payload: PutOp([]byte("a"), []byte("1"))})
	s.Apply(&types.Transaction{Payload: PutOp([]byte("b"), []byte("2"))})
	s.Apply(&types.Transaction{Payload: PutOp([]byte("a"), []byte("3"))})
	if v, ok := s.Get([]byte("a")); !ok || string(v) != "3" {
		t.Fatalf("a = %q (ok=%v), want 3", v, ok)
	}
	s.Apply(&types.Transaction{Payload: DeleteOp([]byte("b"))})
	if _, ok := s.Get([]byte("b")); ok {
		t.Fatal("b survived delete")
	}
	if s.Len() != 1 || s.Version() != 4 {
		t.Fatalf("len=%d version=%d, want 1/4", s.Len(), s.Version())
	}
	// Opaque payloads are accepted and visible in the root.
	before := s.Root()
	s.Apply(&types.Transaction{Payload: nil})
	s.Apply(&types.Transaction{Payload: []byte("not-an-op")})
	if s.Root() == before {
		t.Fatal("opaque transactions must still perturb the root")
	}
}

func TestKVStateRootDeterministicAndOrderSensitive(t *testing.T) {
	apply := func(ops ...[]byte) types.Digest {
		s := NewKVState()
		for _, op := range ops {
			s.Apply(&types.Transaction{Payload: op})
		}
		return s.Root()
	}
	a1 := apply(PutOp([]byte("x"), []byte("1")), PutOp([]byte("y"), []byte("2")))
	a2 := apply(PutOp([]byte("x"), []byte("1")), PutOp([]byte("y"), []byte("2")))
	if a1 != a2 {
		t.Fatal("identical op streams must yield identical roots")
	}
	// Same final KV content, different write order: the versioned ledger
	// distinguishes them.
	b := apply(PutOp([]byte("y"), []byte("2")), PutOp([]byte("x"), []byte("1")))
	if a1 == b {
		t.Fatal("write order must be part of the root")
	}
}

func TestKVStateSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewKVState()
	for i := byte(0); i < 50; i++ {
		s.Apply(&types.Transaction{Payload: PutOp([]byte{'k', i}, []byte{'v', i})})
	}
	s.Apply(&types.Transaction{Payload: DeleteOp([]byte{'k', 7})})
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewKVState()
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Root() != s.Root() {
		t.Fatal("restored root differs from source")
	}
	// Corrupt snapshots must not clobber existing state.
	preserved := restored.Root()
	if err := restored.Restore([]byte("garbage")); err == nil {
		t.Fatal("corrupt snapshot must fail to restore")
	}
	if restored.Root() != preserved {
		t.Fatal("failed restore mutated state")
	}
}

func TestExecutorAppliesAndChainsRoots(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	c1 := makeCommit(1, 2, [][]byte{PutOp([]byte("a"), []byte("1"))})
	c2 := makeCommit(2, 4, [][]byte{PutOp([]byte("b"), []byte("2"))})
	x.ApplyCommit(c1)
	r1 := x.StateRoot()
	x.ApplyCommit(c2)
	if x.AppliedSeq() != 2 || x.AppliedRound() != 4 {
		t.Fatalf("cursor = (%d, %d), want (2, 4)", x.AppliedSeq(), x.AppliedRound())
	}
	if x.StateRoot() == r1 {
		t.Fatal("root must advance per commit")
	}
	if got, ok := x.RootAt(1); !ok || got != r1 {
		t.Fatalf("RootAt(1) = %s (ok=%v), want %s", got, ok, r1)
	}
	// Redelivery (WAL replay) is a no-op.
	before := x.StateRoot()
	x.ApplyCommit(c1)
	if x.StateRoot() != before || x.AppliedSeq() != 2 {
		t.Fatal("redelivered commit must be skipped")
	}

	// Determinism: a second executor fed the same stream converges.
	y := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	y.ApplyCommit(makeCommit(1, 2, [][]byte{PutOp([]byte("a"), []byte("1"))}))
	y.ApplyCommit(makeCommit(2, 4, [][]byte{PutOp([]byte("b"), []byte("2"))}))
	if y.StateRoot() != x.StateRoot() || y.StateDigest() != x.StateDigest() {
		t.Fatal("identical commit streams must converge to identical roots")
	}
}

func TestExecutorCheckpointsAtInterval(t *testing.T) {
	store := NewMemoryStore()
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 4, Store: store})
	for seq := uint64(1); seq <= 9; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
	}
	if got := x.Checkpoints(); got != 2 {
		t.Fatalf("checkpoints = %d, want 2 (at seq 4 and 8)", got)
	}
	snap, ok := store.Latest()
	if !ok || snap.CommitSeq != 8 {
		t.Fatalf("latest checkpoint seq = %d (ok=%v), want 8", snap.CommitSeq, ok)
	}
	if snap.StateRoot == (types.Digest{}) || snap.StateDigest == (types.Digest{}) {
		t.Fatal("checkpoint must carry both roots")
	}
	if len(snap.Ordered) == 0 {
		t.Fatal("checkpoint must carry the ordered boundary window")
	}
	for _, ref := range snap.Ordered {
		if ref.Round < snap.Floor {
			t.Fatalf("ordered ref at round %d below floor %d", ref.Round, snap.Floor)
		}
	}
}

func TestExecutorInstallVerifiesAndAdopts(t *testing.T) {
	// Producer applies 6 commits and checkpoints.
	producer := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	var commits []bullshark.CommittedSubDAG
	for seq := uint64(1); seq <= 6; seq++ {
		c := makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))})
		commits = append(commits, c)
		producer.ApplyCommit(c)
	}
	snap, err := producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	if err := fresh.Install(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.AppliedSeq() != 6 || fresh.StateRoot() != producer.StateRoot() ||
		fresh.StateDigest() != producer.StateDigest() {
		t.Fatal("install did not adopt the checkpoint state")
	}
	// Stale installs are refused.
	if err := fresh.Install(snap); err != ErrStaleSnapshot {
		t.Fatalf("re-install err = %v, want ErrStaleSnapshot", err)
	}

	// Corrupted data: digest recomputation must reject and roll back.
	bad := snap
	bad.CommitSeq++
	bad.Data = append([]byte(nil), snap.Data...)
	bad.Data[len(bad.Data)-2] ^= 0xFF // inside the encoded entry values
	before := fresh.StateDigest()
	if err := fresh.Install(bad); err == nil {
		t.Fatal("corrupted snapshot must be rejected")
	}
	if fresh.StateDigest() != before || fresh.AppliedSeq() != 6 {
		t.Fatal("rejected install must leave state untouched")
	}
}

func TestExecutorInstallFromWireDetectsCorruptChunk(t *testing.T) {
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

	fresh := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	corrupted := append([]byte(nil), blob...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := fresh.InstallFromWire(meta, corrupted); err == nil {
		t.Fatal("corrupted wire blob must be rejected")
	}
	if fresh.AppliedSeq() != 0 {
		t.Fatal("rejected wire install must leave the executor untouched")
	}

	install, err := fresh.InstallFromWire(meta, blob)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.StateRoot() != producer.StateRoot() {
		t.Fatal("wire install did not converge")
	}
	if install.PruneTo > meta.Round+1 {
		t.Fatalf("install floor %d beyond checkpoint round %d", install.PruneTo, meta.Round)
	}
}

func TestExecutorAsyncModeMatchesSync(t *testing.T) {
	var commits []bullshark.CommittedSubDAG
	for seq := uint64(1); seq <= 20; seq++ {
		commits = append(commits, makeCommit(seq, types.Round(seq*2),
			[][]byte{PutOp([]byte{byte(seq)}, []byte("v")), DeleteOp([]byte{byte(seq / 2)})}))
	}
	sync := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	for _, c := range commits {
		sync.ApplyCommit(c)
	}
	if sync.q != nil || sync.QueueDepth() != 0 {
		t.Fatal("an executor that was never started holds an async queue")
	}
	async := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, QueueDepth: 4})
	async.Start()
	for _, c := range commits {
		async.Submit(c)
	}
	async.Close()
	if async.AppliedSeq() != sync.AppliedSeq() || async.StateRoot() != sync.StateRoot() {
		t.Fatalf("async (%d, %s) != sync (%d, %s)",
			async.AppliedSeq(), async.StateRoot(), sync.AppliedSeq(), sync.StateRoot())
	}
}

// TestExecutorSubmitBeforeStartIsDroppedAtClose pins what Submit does for a
// caller that breaks the contract (Start first): it waits, and Close releases
// it with the commit dropped, exactly as for a submit that races Close.
func TestExecutorSubmitBeforeStartIsDroppedAtClose(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		x.Submit(makeCommit(1, 2, [][]byte{PutOp([]byte("k"), []byte("v"))}))
	}()
	x.Close()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit on a never-started executor did not return after Close")
	}
	if x.AppliedSeq() != 0 {
		t.Fatalf("applied seq %d: a never-started executor applied a submitted commit", x.AppliedSeq())
	}
}

func TestSnapshotAtServesPreviousCheckpoint(t *testing.T) {
	// A peer mid-fetch of checkpoint N must still be servable after the
	// executor rotates to checkpoint N+1 (resumable fetches across rotation).
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	x.ApplyCommit(makeCommit(1, 2, [][]byte{PutOp([]byte("a"), []byte("1"))}))
	if _, err := x.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	prevMeta, prevBlob, ok := x.LatestSnapshot()
	if !ok {
		t.Fatal("no first checkpoint")
	}
	x.ApplyCommit(makeCommit(2, 4, [][]byte{PutOp([]byte("b"), []byte("2"))}))
	if _, err := x.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	latestMeta, _, _ := x.LatestSnapshot()
	if latestMeta.Round == prevMeta.Round {
		t.Fatal("checkpoint did not rotate")
	}
	meta, blob, ok := x.SnapshotAt(prevMeta.Round)
	if !ok || meta != prevMeta || string(blob) != string(prevBlob) {
		t.Fatalf("previous checkpoint not servable after rotation (ok=%v)", ok)
	}
	if _, _, ok := x.SnapshotAt(prevMeta.Round + 1000); ok {
		t.Fatal("unknown round must not be servable")
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	snap := Snapshot{
		Checkpoint: Checkpoint{Round: 10, CommitSeq: 5,
			StateRoot: types.HashBytes([]byte("r")), StateDigest: types.HashBytes([]byte("d"))},
		Floor:   3,
		Ordered: []OrderedRef{{Digest: types.HashBytes([]byte("v")), Round: 9}},
		Data:    []byte("payload"),
	}
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint != snap.Checkpoint || got.Floor != snap.Floor ||
		len(got.Ordered) != 1 || got.Ordered[0] != snap.Ordered[0] ||
		!bytes.Equal(got.Data, snap.Data) {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
}

// TestExecutorReadKV covers the gateway's read path: value, write version and
// the consistency cursor all come from one locked snapshot of the executor.
func TestExecutorReadKV(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{})
	if r, ok := x.ReadKV([]byte("a")); !ok || r.Found || r.AppliedSeq != 0 {
		t.Fatalf("empty executor read = %+v (ok=%v), want not-found at seq 0", r, ok)
	}
	x.ApplyCommit(makeCommit(1, 2, [][]byte{PutOp([]byte("a"), []byte("1"))}))
	x.ApplyCommit(makeCommit(2, 4, [][]byte{PutOp([]byte("a"), []byte("2")), PutOp([]byte("b"), []byte("3"))}))

	r, ok := x.ReadKV([]byte("a"))
	if !ok || !r.Found || string(r.Value) != "2" {
		t.Fatalf("a = %+v (ok=%v), want value 2", r, ok)
	}
	if r.Version != 2 {
		t.Fatalf("a version = %d, want 2 (second KV op wrote it)", r.Version)
	}
	if r.AppliedSeq != 2 || r.Round != 4 || r.StateRoot != x.StateRoot() {
		t.Fatalf("cursor = seq %d round %d root %s, want 2/4/%s", r.AppliedSeq, r.Round, r.StateRoot, x.StateRoot())
	}
	if r, _ := x.ReadKV([]byte("missing")); r.Found {
		t.Fatal("missing key reported found")
	}

	// A non-KV state machine has no generic read surface.
	type opaque struct{ StateMachine }
	y := NewExecutor(opaque{NewKVState()}, Config{})
	if _, ok := y.ReadKV([]byte("a")); ok {
		t.Fatal("ReadKV against a custom state machine must report ok=false")
	}
}

// TestExecutorSnapshotFloor: no checkpoint -> 0; after a checkpoint the floor
// tracks the boundary window.
func TestExecutorSnapshotFloor(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, BoundaryRounds: 4})
	if got := x.SnapshotFloor(); got != 0 {
		t.Fatalf("floor before any checkpoint = %d, want 0", got)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
	}
	if _, err := x.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := x.SnapshotFloor(); got != 20+1-4 {
		t.Fatalf("floor = %d, want %d", got, 20+1-4)
	}
}
