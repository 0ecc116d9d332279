package execution

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"hammerhead/internal/types"
)

// FuzzDecodeSnapshot feeds DecodeSnapshot — the decoder behind GET
// /v1/snapshot bootstraps and peer state-sync, both bytes from another
// machine — arbitrary input: it must never panic, and whatever it accepts
// must be the one encoding of the value it returns, or two different blobs
// could install as the same checkpoint. Each input is tried as it comes and
// again with a recomputed checksum trailer, so mutations reach the field
// decoders instead of all dying at the CRC.
func FuzzDecodeSnapshot(f *testing.F) {
	_, keys, _ := certCommittee(f)
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	for seq := uint64(1); seq <= 3; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(2*seq), [][]byte{PutOp([]byte{byte(seq)}, []byte("v")), []byte("opaque")}))
	}
	snap, err := x.ForceCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	uncertified, err := EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	snap.Cert = quorumCertFor(f, snap, keys, 3)
	certified, err := EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uncertified)
	f.Add(certified)
	// The Ordered count re-encoded as a padded varint: same value, other
	// bytes. The wire reader refuses it; this seed is what found that it
	// did not.
	const countAt = 2 + 8 + 8 + 2*types.DigestSize + 8
	padded := slices.Concat(uncertified[:countAt], []byte{uncertified[countAt] | 0x80, 0x00}, uncertified[countAt+1:])
	f.Add(padded)
	f.Add([]byte{})
	f.Add([]byte{snapshotMagic, snapshotWireV3, 0, 0, 0, 0})

	check := func(t *testing.T, data []byte) {
		decoded, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		again, err := EncodeSnapshot(decoded)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("DecodeSnapshot accepted %d bytes that are not the encoding of what it returned (%d bytes)", len(data), len(again))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= 6 {
			sealed := bytes.Clone(data)
			binary.BigEndian.PutUint32(sealed[len(sealed)-4:], crc32.Checksum(sealed[2:len(sealed)-4], snapshotCRCTable))
			check(t, sealed)
		}
	})
}
