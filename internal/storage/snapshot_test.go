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
	store, err := NewSnapshotStore(filepath.Join(t.TempDir(), "snaps"))
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
	store, err := NewSnapshotStore(dir)
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
	if len(entries) != snapshotRetain {
		t.Fatalf("retention kept %d files, want %d", len(entries), snapshotRetain)
	}
	got, ok := store.Latest()
	if !ok || got.CommitSeq != 5 {
		t.Fatalf("latest = %d (ok=%v), want 5", got.CommitSeq, ok)
	}
}

func TestSnapshotStoreSkipsCorruptLatest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewSnapshotStore(dir)
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
	store, err := NewSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(store, testSnapshot(3, 30)); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reopened.Latest()
	if !ok || got.CommitSeq != 3 {
		t.Fatalf("reopened latest = %d (ok=%v), want 3", got.CommitSeq, ok)
	}
}

// TestNewSnapshotStoreSyncsCreatedDirs: the directory a store creates is
// named durably — the parent of each directory it makes is fsynced — since
// the WAL is compacted once a snapshot in it is saved. Opening an existing
// store syncs nothing.
func TestNewSnapshotStoreSyncsCreatedDirs(t *testing.T) {
	root := t.TempDir()
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	var synced []string
	syncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	dir := filepath.Join(root, "node", "snaps")
	if _, err := NewSnapshotStore(dir); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 || synced[0] != root || synced[1] != filepath.Join(root, "node") {
		t.Fatalf("creating %s fsynced %v, want %s then %s", dir, synced, root, filepath.Join(root, "node"))
	}
	synced = nil
	if _, err := NewSnapshotStore(dir); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 0 {
		t.Fatalf("reopening the store fsynced %v, want nothing", synced)
	}
}
