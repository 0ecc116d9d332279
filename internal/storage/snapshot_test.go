package storage

import (
	"os"
	"path/filepath"
	"testing"

	"hammerhead/internal/execution"
	"hammerhead/internal/types"
)

func testSnapshot(seq uint64, round types.Round) execution.Snapshot {
	return execution.Snapshot{
		Checkpoint: execution.Checkpoint{
			Round:       round,
			CommitSeq:   seq,
			StateRoot:   types.HashBytes([]byte{byte(seq)}),
			StateDigest: types.HashBytes([]byte{byte(seq), 1}),
		},
		Floor:   round / 2,
		Ordered: []execution.OrderedRef{{Digest: types.HashBytes([]byte{byte(round)}), Round: round}},
		Data:    []byte("state-bytes"),
	}
}

// save hands the store a snapshot the way the executor does: encoded.
func save(store *SnapshotStore, snap execution.Snapshot) error {
	blob, err := execution.EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return store.Save(snap.CommitSeq, blob)
}

func TestSnapshotStoreRoundTrip(t *testing.T) {
	store, err := NewSnapshotStore(filepath.Join(t.TempDir(), "snaps"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Latest(); ok {
		t.Fatal("empty store must report no snapshot")
	}
	want := testSnapshot(7, 40)
	if err := save(store, want); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Latest()
	if !ok {
		t.Fatal("saved snapshot not found")
	}
	if got.CommitSeq != 7 || got.Round != 40 || got.StateRoot != want.StateRoot ||
		got.StateDigest != want.StateDigest || got.Floor != want.Floor {
		t.Fatalf("round-trip mangled checkpoint: %+v", got.Checkpoint)
	}
	if len(got.Ordered) != 1 || got.Ordered[0] != want.Ordered[0] {
		t.Fatalf("round-trip mangled ordered window: %+v", got.Ordered)
	}
	if string(got.Data) != "state-bytes" {
		t.Fatalf("round-trip mangled data: %q", got.Data)
	}
}

func TestSnapshotStoreRetention(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewSnapshotStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := save(store, testSnapshot(seq, types.Round(seq*10))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retention kept %d files, want 2", len(entries))
	}
	got, ok := store.Latest()
	if !ok || got.CommitSeq != 5 {
		t.Fatalf("latest = %d (ok=%v), want 5", got.CommitSeq, ok)
	}
}

func TestSnapshotStoreSkipsCorruptLatest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewSnapshotStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(store, testSnapshot(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := save(store, testSnapshot(2, 20)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest file: the store must fall back to the predecessor.
	path := filepath.Join(dir, "checkpoint-00000000000000000002.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Latest()
	if !ok || got.CommitSeq != 1 {
		t.Fatalf("latest after corruption = %d (ok=%v), want fallback to 1", got.CommitSeq, ok)
	}
}

func TestSnapshotStorePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewSnapshotStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(store, testSnapshot(3, 30)); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewSnapshotStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reopened.Latest()
	if !ok || got.CommitSeq != 3 {
		t.Fatalf("reopened latest = %d (ok=%v), want 3", got.CommitSeq, ok)
	}
}
