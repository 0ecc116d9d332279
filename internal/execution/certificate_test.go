package execution

import (
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// certCommittee builds a 4-validator committee with Ed25519 keys for
// certificate tests.
func certCommittee(t testing.TB) (*types.Committee, []crypto.KeyPair, []crypto.PublicKey) {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	scheme := crypto.Ed25519{}
	var seed [32]byte
	seed[0] = 0x99
	keys := make([]crypto.KeyPair, 4)
	pubs := make([]crypto.PublicKey, 4)
	for i := range keys {
		kp, err := crypto.NewKeyPair(scheme, seed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
		pubs[i] = kp.Public
	}
	return committee, keys, pubs
}

// quorumCertFor signs the snapshot's checkpoint tuple with the first signers
// validators — a valid certificate when signers reaches quorum.
func quorumCertFor(t testing.TB, snap Snapshot, keys []crypto.KeyPair, signers int) *checkpoint.Certificate {
	t.Helper()
	m := checkpoint.Meta{
		Round:       snap.Round,
		CommitSeq:   snap.CommitSeq,
		StateRoot:   snap.StateRoot,
		StateDigest: snap.StateDigest,
		SchedDigest: checkpoint.SchedDigestOf(snap.SchedulerState),
	}
	cert := &checkpoint.Certificate{Meta: m}
	for i := 0; i < signers; i++ {
		sh, err := checkpoint.Sign(m, types.ValidatorID(i), keys[i])
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, checkpoint.Sig{Validator: sh.Validator, Signature: sh.Signature})
	}
	return cert
}

func runProducer(t *testing.T, commits uint64) *Executor {
	t.Helper()
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, CheckpointCerts: true})
	for seq := uint64(1); seq <= commits; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
	}
	return x
}

func TestInstallFromWireRequiresCertificate(t *testing.T) {
	committee, keys, pubs := certCommittee(t)
	producer := runProducer(t, 6)
	snap, err := producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	newInstaller := func() *Executor {
		return NewExecutor(NewKVState(), Config{
			CheckpointInterval: 1000,
			CheckpointCerts:    true,
			CertVerifier: func(c *checkpoint.Certificate) error {
				return c.Verify(committee, pubs, crypto.Ed25519{})
			},
		})
	}
	// An uncertified snapshot must be rejected before touching state.
	meta, blob, ok := producer.LatestSnapshot()
	if !ok {
		t.Fatal("producer serves no snapshot")
	}
	installer := newInstaller()
	if _, err := installer.InstallFromWire(meta, blob); err == nil {
		t.Fatal("uncertified snapshot must be rejected")
	}
	if installer.AppliedSeq() != 0 {
		t.Fatal("rejected install must leave the executor untouched")
	}

	// A forged certificate — quorum signatures over a DIFFERENT tuple —
	// must be rejected by the meta binding.
	forgedTuple := snap
	forgedTuple.StateRoot = types.HashBytes([]byte("forged"))
	wrong := quorumCertFor(t, forgedTuple, keys, 3)
	if !producer.AttachCertificate(snap.CommitSeq, wrong) {
		t.Fatal("attach to cached checkpoint failed")
	}
	meta, blob, _ = producer.LatestSnapshot()
	if _, err := installer.InstallFromWire(meta, blob); err == nil {
		t.Fatal("certificate over a different tuple must be rejected")
	}

	// A sub-quorum certificate must be rejected by the verifier.
	producer.AttachCertificate(snap.CommitSeq, quorumCertFor(t, snap, keys, 2))
	meta, blob, _ = producer.LatestSnapshot()
	if _, err := installer.InstallFromWire(meta, blob); err == nil {
		t.Fatal("sub-quorum certificate must be rejected")
	}
	if installer.AppliedSeq() != 0 {
		t.Fatal("rejected installs must leave the executor untouched")
	}

	// The genuine quorum certificate passes, and the installer adopts both
	// the state and the certificate (servable onward).
	producer.AttachCertificate(snap.CommitSeq, quorumCertFor(t, snap, keys, 3))
	meta, blob, _ = producer.LatestSnapshot()
	if _, err := installer.InstallFromWire(meta, blob); err != nil {
		t.Fatalf("certified snapshot rejected: %v", err)
	}
	if installer.StateRoot() != producer.StateRoot() {
		t.Fatal("certified install did not converge")
	}
	if cert, ok := installer.LatestCertificate(); !ok || cert.Meta.CommitSeq != snap.CommitSeq {
		t.Fatal("installer did not adopt the snapshot's certificate")
	}
}

func TestAttachCertificateEnablesProvenReads(t *testing.T) {
	committee, keys, pubs := certCommittee(t)
	x := runProducer(t, 6)
	snap, err := x.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Before certification there is nothing trustworthy to serve.
	if _, ok := x.ProvenRead([]byte{1}); ok {
		t.Fatal("proven read served before any certificate attached")
	}

	cert := quorumCertFor(t, snap, keys, 3)
	if !x.AttachCertificate(snap.CommitSeq, cert) {
		t.Fatal("attach failed")
	}
	if err := cert.Verify(committee, pubs, crypto.Ed25519{}); err != nil {
		t.Fatal(err)
	}

	// Advance the live state past the certified checkpoint: proven reads
	// must still verify against the CERTIFIED digest.
	x.ApplyCommit(makeCommit(7, 14, [][]byte{PutOp([]byte{1}, []byte("overwritten"))}))

	verify := func(key []byte) (value []byte, found bool) {
		t.Helper()
		pr, ok := x.ProvenRead(key)
		if !ok {
			t.Fatal("no proven read after certification")
		}
		root, entry, err := pr.Proof.Verify(key)
		if err != nil {
			t.Fatalf("proof verify: %v", err)
		}
		if StateDigestFrom(pr.Version, pr.Opaque, root) != pr.Cert.Meta.StateDigest {
			t.Fatal("proof root + counters do not reproduce the certified state digest")
		}
		return entry.Value, entry.Found
	}
	// Inclusion: key 1 had value "v" at the certified checkpoint, despite
	// the later overwrite.
	if v, found := verify([]byte{1}); !found || string(v) != "v" {
		t.Fatalf("proven read = %q (found=%v), want certified value \"v\"", v, found)
	}
	// Exclusion: key 200 never existed.
	if _, found := verify([]byte{200}); found {
		t.Fatal("exclusion proof claims presence")
	}

	// Stale attach (rotated-out seq) is ignored.
	if x.AttachCertificate(snap.CommitSeq+999, cert) {
		t.Fatal("attach to unknown checkpoint succeeded")
	}
}
