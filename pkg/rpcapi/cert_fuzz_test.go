package rpcapi

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// FuzzCertFromWire stands where a replica or client vets a checkpoint
// certificate from /v1/checkpoint or a proof response: arbitrary bytes go
// through encoding/json into a CheckpointCert, through CertFromWire, and into
// Certificate.Verify against a 4-member committee with unequal stakes (1, 2,
// 3, 4: two large signers make a quorum, three small ones do not). No input
// may panic. Verify may accept only strictly ascending in-committee signers
// whose stake reaches the quorum threshold and whose signatures are the ones
// their keys produce over the certified tuple, and an accepted certificate
// must survive CertToWire then CertFromWire unchanged.
func FuzzCertFromWire(f *testing.F) {
	committee, err := types.NewCommittee([]types.Authority{
		{ID: 0, Stake: 1}, {ID: 1, Stake: 2}, {ID: 2, Stake: 3}, {ID: 3, Stake: 4},
	})
	if err != nil {
		f.Fatal(err)
	}
	scheme := crypto.Insecure{}
	keys := make([]crypto.KeyPair, committee.Size())
	pubs := make([]crypto.PublicKey, committee.Size())
	for i := range keys {
		if keys[i], err = crypto.NewKeyPair(scheme, [32]byte{0xce}, uint32(i)); err != nil {
			f.Fatal(err)
		}
		pubs[i] = keys[i].Public
	}
	meta := checkpoint.Meta{
		Round:       40,
		CommitSeq:   17,
		StateRoot:   types.HashBytes([]byte("chained-root")),
		StateDigest: types.HashBytes([]byte("state")),
		SchedDigest: checkpoint.SchedDigestOf([]byte("sched")),
	}
	sign := func(signers ...types.ValidatorID) []byte {
		cert := &checkpoint.Certificate{Meta: meta}
		for _, v := range signers {
			sh, err := checkpoint.Sign(meta, v, keys[v%4])
			if err != nil {
				f.Fatal(err)
			}
			cert.Sigs = append(cert.Sigs, checkpoint.Sig{Validator: v, Signature: sh.Signature})
		}
		blob, err := json.Marshal(CertToWire(cert))
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	f.Add(sign(2, 3))       // quorum from two signers
	f.Add(sign(0, 1, 2, 3)) // everyone
	f.Add(sign(0, 1, 2))    // six of seven needed
	f.Add(sign(3, 2))       // descending
	f.Add(sign(2, 2, 3))    // a signer twice
	f.Add(sign(1, 2, 3, 4)) // one outside the committee
	f.Add([]byte(`{"round":40,"state_root":"zz","sigs":[{"validator":4294967295}]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		var w CheckpointCert
		if err := json.Unmarshal(blob, &w); err != nil {
			return // the caller's JSON decode already refused it
		}
		cert, err := CertFromWire(w)
		if err != nil {
			return
		}
		if cert.Verify(committee, pubs, scheme) != nil {
			return
		}
		msg := checkpoint.SigningBytes(cert.Meta)
		var stake types.Stake
		for i, s := range cert.Sigs {
			if i > 0 && s.Validator <= cert.Sigs[i-1].Validator {
				t.Fatalf("accepted signers out of strict order: %v", cert.Sigs)
			}
			if int(s.Validator) >= committee.Size() {
				t.Fatalf("accepted signer %s outside the committee", s.Validator)
			}
			want, err := keys[s.Validator].Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s.Signature, want) {
				t.Fatalf("accepted a signature of %s its key did not make", s.Validator)
			}
			stake += committee.Stake(s.Validator)
		}
		if stake < committee.QuorumThreshold() {
			t.Fatalf("accepted %d stake, quorum is %d", stake, committee.QuorumThreshold())
		}
		back, err := CertFromWire(CertToWire(cert))
		if err != nil {
			t.Fatalf("an accepted certificate does not parse back: %v", err)
		}
		if !reflect.DeepEqual(back, cert) {
			t.Fatalf("CertToWire then CertFromWire changed an accepted certificate:\n%+v\n%+v", cert, back)
		}
	})
}
