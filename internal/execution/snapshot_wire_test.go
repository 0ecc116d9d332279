package execution

import (
	"bytes"
	"fmt"
	"testing"

	"hammerhead/internal/types"
)

// applyPut applies one put op through the public Apply path.
func applyPut(s *KVState, key, value string) {
	s.Apply(&types.Transaction{Payload: PutOp([]byte(key), []byte(value))})
}

// TestKVSnapshotDeterministic pins the property the determinism analyzer
// guards: equal states serialize to equal bytes — repeated snapshots of the
// same state, and the same commit stream replayed on two validators, whatever
// order the trie walks its keys in.
func TestKVSnapshotDeterministic(t *testing.T) {
	build := func() *KVState {
		s := NewKVState()
		for i := 0; i < 64; i++ {
			applyPut(s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%d", i))
		}
		return s
	}
	a, b := build(), build()

	first := snapshotKV(a)
	for i := 0; i < 8; i++ {
		again := snapshotKV(a)
		if !bytes.Equal(first, again) {
			t.Fatalf("snapshot %d of the same state differs from the first", i)
		}
	}
	other := snapshotKV(b)
	if !bytes.Equal(first, other) {
		t.Fatal("two states built from identical op sequences snapshot to different bytes")
	}
}

// TestKVSnapshotRoundTrip checks Snapshot/Restore preserves entries, versions
// and the op counters.
func TestKVSnapshotRoundTrip(t *testing.T) {
	s := NewKVState()
	applyPut(s, "a", "1")
	applyPut(s, "b", "2")
	s.Apply(&types.Transaction{Payload: []byte("xx")}) // opaque
	blob := snapshotKV(s)
	r := NewKVState()
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if r.Root() != s.Root() {
		t.Fatal("restored root differs from source root")
	}
	if v, ok := r.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("restored Get(b) = %q, %v", v, ok)
	}
}

// TestSnapshotBlobChecksumCatchesAnyFlip: the whole-blob checksum rejects a
// bit flip at EVERY byte position — including Floor, Ordered and
// SchedulerState, which the state digest does not cover (the install-layer
// gap the framing exists to close).
func TestSnapshotBlobChecksumCatchesAnyFlip(t *testing.T) {
	s := NewKVState()
	applyPut(s, "k", "v")
	data := snapshotKV(s)
	blob, err := EncodeSnapshot(Snapshot{
		Checkpoint:     Checkpoint{Round: 8, CommitSeq: 4, StateDigest: s.Root()},
		Floor:          2,
		Ordered:        []OrderedRef{{Round: 7}, {Round: 8}},
		Data:           data,
		SchedulerState: []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xFF
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("flip at byte %d/%d decoded cleanly", i, len(blob))
		}
	}
}
