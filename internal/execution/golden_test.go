package execution

import (
	"encoding/hex"
	"reflect"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/types"
)

// The golden constants below pin the bytes of the snapshot blob (tag 00 03)
// and the KVState blob inside it (tag 00 01). They were recorded before the
// gob blob generations were deleted and did not move with them; a format
// revision moves them once, on purpose, together with the version tag.

func TestGoldenSnapshotBlob(t *testing.T) {
	sched := []byte("scheduler-state-bytes")
	meta := checkpoint.Meta{
		Round:       40,
		CommitSeq:   17,
		StateRoot:   types.HashBytes([]byte("chained-root")),
		StateDigest: types.HashBytes([]byte("state-digest")),
		SchedDigest: checkpoint.SchedDigestOf(sched),
	}
	snap := Snapshot{
		Checkpoint: Checkpoint{Round: meta.Round, CommitSeq: meta.CommitSeq, StateRoot: meta.StateRoot, StateDigest: meta.StateDigest},
		Floor:      36,
		Ordered: []OrderedRef{
			{Digest: types.HashBytes([]byte("vertex-a")), Round: 36},
			{Digest: types.HashBytes([]byte("vertex-b")), Round: 38},
		},
		Data:           []byte("state-machine-bytes"),
		SchedulerState: sched,
		Cert: &checkpoint.Certificate{Meta: meta, Sigs: []checkpoint.Sig{
			{Validator: 0, Signature: []byte("sig-0")},
			{Validator: 1, Signature: []byte("sig-1")},
			{Validator: 3, Signature: []byte("sig-3")},
		}},
	}
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != goldenSnapshot {
		t.Fatalf("encoding moved:\n got %s\nwant %s", got, goldenSnapshot)
	}
	decoded, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("golden blob rejected: %v", err)
	}
	if !reflect.DeepEqual(decoded, snap) {
		t.Fatalf("golden blob decoded to a different value:\n got %+v\nwant %+v", decoded, snap)
	}
}

func TestGoldenKVSnapshot(t *testing.T) {
	s := NewKVState()
	applyPut(s, "acct-1", "100")
	applyPut(s, "acct-2", "")
	applyPut(s, "acct-3", "300")
	applyPut(s, "acct-1", "150")
	s.Apply(&types.Transaction{Payload: DeleteOp([]byte("acct-3"))})
	s.Apply(&types.Transaction{Payload: []byte("xx")}) // opaque
	blob := snapshotKV(s)
	if got := hex.EncodeToString(blob); got != goldenKVSnapshot {
		t.Fatalf("encoding moved:\n got %s\nwant %s", got, goldenKVSnapshot)
	}
	restored := NewKVState()
	if err := restored.Restore(blob); err != nil {
		t.Fatalf("golden blob rejected: %v", err)
	}
	if v, ver, ok := restored.GetVersioned([]byte("acct-1")); !ok || string(v) != "150" || ver != 4 || restored.Root() != s.Root() {
		t.Fatalf("golden blob restored to a different state (acct-1 = %q@%d, %v)", v, ver, ok)
	}
	if again := snapshotKV(restored); hex.EncodeToString(again) != goldenKVSnapshot {
		t.Fatal("decode(golden) does not re-encode to golden")
	}
}

const (
	goldenSnapshot   = "0003000000000000002800000000000000117ba053c928b66e0b5e90cc34f8274d0c527b6ff09fa0c95a66bb1b49b89170d77552f5a807c44d23b44f26b6723b5dcd11bc387a7fd6bc9a3b3ea9516918f63c0000000000000024024a84d1e08f21c8340b27e3338e5d03a960b20f9cd5dfc3d8c95e19be836206f200000000000000245964eebf041cac6234ccb4a1cf4ab5534f9417f04e502681ce277c0f47788d6800000000000000261373746174652d6d616368696e652d6279746573157363686564756c65722d73746174652d627974657301000000000000002800000000000000117ba053c928b66e0b5e90cc34f8274d0c527b6ff09fa0c95a66bb1b49b89170d77552f5a807c44d23b44f26b6723b5dcd11bc387a7fd6bc9a3b3ea9516918f63cf3655d0546baec0d339dee0c65987a10a5498176c2f06d0502beba4dd92829980300000000057369672d3000000001057369672d3100000003057369672d33ae82a415"
	goldenKVSnapshot = "0001000000000000000500000000000000010206616363742d3103313530000000000000000406616363742d32000000000000000002"
)
