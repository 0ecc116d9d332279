package rpcapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/merkle"
	"hammerhead/internal/types"
)

// FuzzProofFromWire stands where a client or replica does: bytes off an
// untrusted HTTP response go through encoding/json into a KVProofResponse and
// through ProofFromWire/CertFromWire into the verifiable internal forms. No
// input may panic, and a proof that folds to the true root of a fixed tree
// must attest exactly what that tree holds under the response's key. On the
// seeds — real proofs for present and absent keys — ToWire∘FromWire is the
// identity for proofs and certificates alike.
func FuzzProofFromWire(f *testing.F) {
	tree := merkle.New()
	for i := 0; i < 64; i++ {
		tree.Insert([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("value-%d", i)), uint64(i+1))
	}
	root := tree.Root()
	cert := CertToWire(&checkpoint.Certificate{
		Meta: checkpoint.Meta{
			Round:       40,
			CommitSeq:   17,
			StateRoot:   types.HashBytes([]byte("chained-root")),
			StateDigest: root,
			SchedDigest: checkpoint.SchedDigestOf([]byte("sched")),
		},
		Sigs: []checkpoint.Sig{{Validator: 0, Signature: []byte("sig-0")}, {Validator: 2, Signature: []byte("sig-2")}},
	})
	for _, i := range []int{0, 7, 63, 64, 500} {
		key := []byte(fmt.Sprintf("key-%03d", i))
		value, _, found := tree.Get(key)
		resp := KVProofResponse{Key: key, Value: value, Found: found, StateVersion: 64, Cert: cert}
		resp.Leaf, resp.Steps = ProofToWire(tree.Prove(key))
		blob, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)

		var seed KVProofResponse
		if err := json.Unmarshal(blob, &seed); err != nil {
			f.Fatal(err)
		}
		proof, err := ProofFromWire(seed.Leaf, seed.Steps)
		if err != nil {
			f.Fatal(err)
		}
		if leaf, steps := ProofToWire(proof); !reflect.DeepEqual(leaf, seed.Leaf) || !reflect.DeepEqual(steps, seed.Steps) {
			f.Fatalf("ProofToWire(ProofFromWire(seed %d)) is not the seed", i)
		}
		parsed, err := CertFromWire(seed.Cert)
		if err != nil {
			f.Fatal(err)
		}
		if !reflect.DeepEqual(CertToWire(parsed), seed.Cert) {
			f.Fatalf("CertToWire(CertFromWire(seed %d)) is not the seed", i)
		}
	}
	f.Add([]byte(`{"key":"a2V5","leaf":{"key":"a2V5"},"steps":[{"bit":300,"sibling":"zz"}],"cert":{"sigs":[{}]}}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		var resp KVProofResponse
		if err := json.Unmarshal(blob, &resp); err != nil {
			return // not a response: the client's JSON decode already refused it
		}
		_, _ = CertFromWire(resp.Cert) // must not panic; vetting is Certificate.Verify's job
		proof, err := ProofFromWire(resp.Leaf, resp.Steps)
		if err != nil {
			return
		}
		got, entry, err := proof.Verify(resp.Key)
		if err != nil || got != root {
			return // rejected, or a proof about some other tree
		}
		wantValue, wantVersion, wantFound := tree.Get(resp.Key)
		if entry.Found != wantFound {
			t.Fatalf("forged presence: key %q found=%v, the tree says %v", resp.Key, entry.Found, wantFound)
		}
		if wantFound && (!bytes.Equal(entry.Value, wantValue) || entry.Version != wantVersion) {
			t.Fatalf("forged entry for key %q: got (%q,%d), the tree holds (%q,%d)",
				resp.Key, entry.Value, entry.Version, wantValue, wantVersion)
		}
	})
}
