package execution

import (
	"bytes"
	"fmt"
	"reflect"
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

// acceptState is an install's scheduler restore that accepts any state.
func acceptState([]byte) error { return nil }

// snapshotKV is the ledger's whole encoding, as a checkpoint of it would
// carry.
func snapshotKV(s *KVState) []byte { return encodeKV(s.tree, s.version, s.opaque) }

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
	data := snapshotKV(s)
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
	store := &recordingStore{}
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 4, Store: store})
	for seq := uint64(1); seq <= 9; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
	}
	// Seqs 4 and 8 commit anchors ≡ 0 (mod 4), which leave the fast phase
	// running: each cut moves to the next commit, whose anchor ends it.
	if got := x.Checkpoints(); got != 2 {
		t.Fatalf("checkpoints = %d, want 2 (at seq 5 and 9)", got)
	}
	snap, ok := store.Latest()
	if !ok || snap.CommitSeq != 9 || snap.Round != 18 {
		t.Fatalf("latest checkpoint seq = %d round %d (ok=%v), want seq 9 round 18", snap.CommitSeq, snap.Round, ok)
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
	if err := fresh.install(snap, acceptState); err != nil {
		t.Fatal(err)
	}
	if fresh.AppliedSeq() != 6 || fresh.StateRoot() != producer.StateRoot() ||
		fresh.StateDigest() != producer.StateDigest() {
		t.Fatal("install did not adopt the checkpoint state")
	}
	// Stale installs are refused.
	if err := fresh.install(snap, acceptState); err != ErrStaleSnapshot {
		t.Fatalf("re-install err = %v, want ErrStaleSnapshot", err)
	}

	// Corrupted data: digest recomputation must reject it, the live ledger
	// untouched.
	bad := snap
	bad.CommitSeq++
	bad.Data = append([]byte(nil), snap.Data...)
	bad.Data[len(bad.Data)-2] ^= 0xFF // inside the encoded entry values
	before := fresh.StateDigest()
	if err := fresh.install(bad, acceptState); err == nil {
		t.Fatal("corrupted snapshot must be rejected")
	}
	if fresh.StateDigest() != before || fresh.AppliedSeq() != 6 {
		t.Fatal("rejected install must leave state untouched")
	}
}

// TestRejectedInstallLeavesTheLedgerAlone: a snapshot whose bytes do not hash
// to its state digest is refused before the live ledger is touched. The
// ledger keeps its touched-key list, so the next checkpoint still merges into
// the cached bytes (and still carries the full encoding), and the certified
// read state is the one from before the install.
func TestRejectedInstallLeavesTheLedgerAlone(t *testing.T) {
	var stream []bullshark.CommittedSubDAG
	for seq := uint64(1); seq <= 6; seq++ {
		var puts [][]byte
		for i := 0; i < 10; i++ {
			puts = append(puts, PutOp([]byte(fmt.Sprintf("k%02d", i*6+int(seq))), []byte("v")))
		}
		stream = append(stream, makeCommit(seq, types.Round(2*seq), puts))
	}
	write := makeCommit(7, 14, [][]byte{PutOp([]byte("k07"), []byte("w")), DeleteOp([]byte("k30"))})
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, CheckpointCerts: true})
	for _, c := range stream {
		x.ApplyCommit(c)
	}
	first, err := x.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	cert := testCert(first.CommitSeq, 1)
	if !x.AttachCertificate(first.CommitSeq, cert) {
		t.Fatal("certificate for the latest checkpoint not attached")
	}
	proven, ok := x.ProvenRead([]byte("k07"))
	if !ok {
		t.Fatal("no certified read state")
	}
	x.ApplyCommit(write)
	ledger := func() (touched int, follows bool) {
		x.mu.Lock()
		defer x.mu.Unlock()
		return len(x.kv.touched), !x.kv.untracked && x.kv.gen == x.latest.kvGen
	}
	touched, follows := ledger()
	if touched != 2 || !follows {
		t.Fatalf("before the install: %d touched keys, next view follows the cached one %v", touched, follows)
	}

	producer := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	for _, c := range append(stream, write) {
		producer.ApplyCommit(c)
	}
	producer.ApplyCommit(makeCommit(8, 16, [][]byte{PutOp([]byte("k99"), []byte("x"))}))
	forged, err := producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	forged.StateDigest = types.HashBytes([]byte("forged"))
	if _, _, err := x.InstallLocal(forged, acceptState); err == nil {
		t.Fatal("a snapshot whose bytes miss its state digest was installed")
	}

	if touched, follows := ledger(); touched != 2 || !follows {
		t.Fatalf("after the rejected install: %d touched keys, next view follows the cached one %v", touched, follows)
	}
	if again, ok := x.ProvenRead([]byte("k07")); !ok || !reflect.DeepEqual(again, proven) {
		t.Fatal("the rejected install changed the certified read state")
	}
	if got, _ := x.LatestCertificate(); got != cert {
		t.Fatal("the rejected install changed the latest certificate")
	}
	second, err := x.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	x.mu.Lock()
	full := encodeKV(x.kv.tree, x.kv.version, x.kv.opaque)
	x.mu.Unlock()
	if second.CommitSeq != 7 || !bytes.Equal(second.Data, full) {
		t.Fatalf("checkpoint at seq %d after the rejected install is not the full encoding", second.CommitSeq)
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
	if _, err := fresh.InstallFromWire(meta, corrupted, acceptState); err == nil {
		t.Fatal("corrupted wire blob must be rejected")
	}
	if fresh.AppliedSeq() != 0 {
		t.Fatal("rejected wire install must leave the executor untouched")
	}

	install, err := fresh.InstallFromWire(meta, blob, acceptState)
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

// TestExecutorAsyncModeMatchesSync holds the checkpoint goroutine to the
// inline writer: fed the same commits at interval 3, an executor that was
// started and one that was not reach the same roots at every checkpoint, the
// same state digest and the same checkpoint count, and save the same blobs.
func TestExecutorAsyncModeMatchesSync(t *testing.T) {
	var commits []bullshark.CommittedSubDAG
	for seq := uint64(1); seq <= 20; seq++ {
		commits = append(commits, makeCommit(seq, types.Round(seq*2),
			[][]byte{PutOp([]byte{byte(seq)}, []byte("v")), DeleteOp([]byte{byte(seq / 2)})}))
	}
	inlineStore := &recordingStore{}
	startedStore := &savedStore{saved: make(chan uint64, 1)}
	inline := NewExecutor(NewKVState(), Config{CheckpointInterval: 3, Store: inlineStore})
	started := NewExecutor(NewKVState(), Config{CheckpointInterval: 3, Store: startedStore})
	started.Start()
	var prev types.Round
	for _, c := range commits {
		inline.ApplyCommit(c)
		started.ApplyCommit(c)
		due := checkpointDue(3, c.Index, c.Anchor.Round, prev)
		prev = c.Anchor.Round
		if due {
			// The checkpoint goroutine writes this cut before the next one
			// can replace it.
			select {
			case seq := <-startedStore.saved:
				if seq != c.Index {
					t.Fatalf("checkpoint goroutine saved seq %d, want %d", seq, c.Index)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("checkpoint goroutine never saved the cut at seq %d", c.Index)
			}
		}
	}
	inline.Close()
	started.Close()
	for seq := uint64(1); seq <= 20; seq++ {
		a, aok := inline.RootAt(seq)
		b, bok := started.RootAt(seq)
		if !aok || !bok || a != b {
			t.Fatalf("root at seq %d: started %s (%v), inline %s (%v)", seq, b, bok, a, aok)
		}
	}
	if started.StateDigest() != inline.StateDigest() {
		t.Fatalf("state digest: started %s, inline %s", started.StateDigest(), inline.StateDigest())
	}
	// Six interval checkpoints (seqs 3, 7, 9, 13, 15, 19) and Close's final
	// one at seq 20.
	if started.Checkpoints() != 7 || inline.Checkpoints() != 7 {
		t.Fatalf("checkpoints: started %d, inline %d, want 7", started.Checkpoints(), inline.Checkpoints())
	}
	got, want := startedStore.log(), inlineStore.log()
	if len(got) != len(want) {
		t.Fatalf("started saved %d blobs, inline %d", len(got), len(want))
	}
	for i := range got {
		if got[i].seq != want[i].seq || !bytes.Equal(got[i].blob, want[i].blob) {
			t.Fatalf("save %d: started seq %d, inline seq %d, blobs equal %v",
				i, got[i].seq, want[i].seq, bytes.Equal(got[i].blob, want[i].blob))
		}
	}
}

// savedStore is a recordingStore that also reports each save's sequence.
type savedStore struct {
	recordingStore
	saved chan uint64
}

func (s *savedStore) Save(seq uint64, blob []byte) error {
	err := s.recordingStore.Save(seq, blob)
	select {
	case s.saved <- seq:
	default: // Close's final save, which nothing waits for
	}
	return err
}

// TestExecutorSubmitBeforeStartIsDroppedAtClose pins what Close does for an
// executor that was never started: it writes the final checkpoint itself,
// before returning, for the commits applied since the last one.
func TestExecutorSubmitBeforeStartIsDroppedAtClose(t *testing.T) {
	store := &recordingStore{}
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, Store: store})
	x.ApplyCommit(makeCommit(1, 2, [][]byte{PutOp([]byte("k"), []byte("v"))}))
	x.Close()
	if x.Checkpoints() != 1 {
		t.Fatalf("%d checkpoints after Close, want the final one", x.Checkpoints())
	}
	saves := store.log()
	if len(saves) != 1 || saves[0].seq != 1 {
		t.Fatalf("saves after Close = %d, want one at seq 1", len(saves))
	}
	if meta, blob, ok := x.LatestSnapshot(); !ok || meta.CommitSeq != 1 || !bytes.Equal(blob, saves[0].blob) {
		t.Fatalf("latest snapshot after Close: seq %d (ok %v), want the saved final checkpoint", meta.CommitSeq, ok)
	}
	x.Close() // idempotent: nothing more is cut or saved
	if len(store.log()) != 1 {
		t.Fatal("a second Close saved again")
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
}

// TestExecutorSnapshotFloor: no checkpoint -> 0; after a checkpoint the floor
// tracks the boundary window.
func TestExecutorSnapshotFloor(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	if got := x.SnapshotFloor(); got != 0 {
		t.Fatalf("floor before any checkpoint = %d, want 0", got)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
	}
	if _, err := x.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := x.SnapshotFloor(); got != 20+1-boundaryRounds {
		t.Fatalf("floor = %d, want %d", got, 20+1-boundaryRounds)
	}
}
