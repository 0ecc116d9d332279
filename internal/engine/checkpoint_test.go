package engine

import (
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// ckptRig builds n engines with checkpoint certification enabled (insecure
// scheme, signature verification ON so share/cert verification paths run).
// execs[i].certs records the certificates engine i attached, in order.
type ckptRig struct {
	committee *types.Committee
	engines   []*Engine
	keys      []crypto.KeyPair
	execs     []*stubExec
}

func newCkptRig(t *testing.T, n int) *ckptRig {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	scheme := crypto.Insecure{}
	var seed [32]byte
	seed[0] = 0x77
	pubKeys := make([]crypto.PublicKey, n)
	pairs := make([]crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(scheme, seed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = kp
		pubKeys[i] = kp.Public
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	rig := &ckptRig{committee: committee, keys: pairs}
	for i := 0; i < n; i++ {
		exec := &stubExec{certify: true}
		rig.execs = append(rig.execs, exec)
		eng, err := New(Params{
			Config:     cfg,
			Committee:  committee,
			Self:       types.ValidatorID(i),
			Keys:       pairs[i],
			PublicKeys: pubKeys,
			Batches:    nilBatches{},
			Scheduler:  leader.NewRoundRobin(committee, 1),
			DAG:        dag.New(committee),
			Execution:  exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.engines = append(rig.engines, eng)
	}
	return rig
}

func ckptTestMeta(seq uint64) checkpoint.Meta {
	return checkpoint.Meta{
		Round:       types.Round(seq * 2),
		CommitSeq:   seq,
		StateRoot:   types.HashBytes([]byte("chain"), []byte{byte(seq)}),
		StateDigest: types.HashBytes([]byte("state"), []byte{byte(seq)}),
		SchedDigest: checkpoint.SchedDigestOf([]byte("sched")),
	}
}

// deliverAll fans one engine's broadcasts of the checkpoint kinds out to every
// other engine, returning the outputs (breadth-first, one hop).
func (r *ckptRig) deliverAll(from int, out *Output) []*Output {
	var next []*Output
	for _, m := range out.Broadcasts {
		if m.Kind != KindCheckpointSig && m.Kind != KindCheckpointCert {
			continue
		}
		for j := range r.engines {
			if j == from {
				continue
			}
			next = append(next, r.engines[j].OnMessage(types.ValidatorID(from), m.Clone(), 0))
		}
	}
	return next
}

func TestCheckpointSharesAssembleAndDeliverOnce(t *testing.T) {
	rig := newCkptRig(t, 4)
	m := ckptTestMeta(1)

	// Every validator checkpoints locally and gossips its share.
	var hops []*Output
	for i, e := range rig.engines {
		out := e.OnLocalCheckpoint(m)
		findBroadcast(t, out, KindCheckpointSig)
		hops = append(hops, rig.deliverAll(i, out)...)
	}
	// Second hop: certificates assembled at quorum get re-broadcast.
	for _, out := range hops {
		rig.deliverAll(0, out)
	}

	for i := range rig.engines {
		if len(rig.execs[i].certs) != 1 {
			t.Fatalf("engine %d delivered %d certificates, want exactly 1", i, len(rig.execs[i].certs))
		}
		cert := rig.execs[i].certs[0]
		if !cert.Matches(m) {
			t.Fatalf("engine %d certified a different tuple", i)
		}
		if err := cert.Verify(rig.committee, pubKeysOf(rig.keys), crypto.Insecure{}); err != nil {
			t.Fatalf("engine %d delivered an unverifiable certificate: %v", i, err)
		}
	}
}

func pubKeysOf(keys []crypto.KeyPair) []crypto.PublicKey {
	pubs := make([]crypto.PublicKey, len(keys))
	for i, k := range keys {
		pubs[i] = k.Public
	}
	return pubs
}

func TestCheckpointRelayedSharesRejected(t *testing.T) {
	rig := newCkptRig(t, 4)
	sh, err := checkpoint.Sign(ckptTestMeta(1), 2, rig.keys[2])
	if err != nil {
		t.Fatal(err)
	}
	// Validator 1 relays validator 2's share: must not count.
	msg := &Message{Kind: KindCheckpointSig, CheckpointSig: &sh}
	rig.engines[0].OnMessage(1, msg, 0)
	if got := rig.engines[0].Stats().CheckpointSigs; got != 0 {
		t.Fatalf("relayed share counted (CheckpointSigs=%d)", got)
	}
	if got := rig.engines[0].Stats().InvalidMessages; got != 1 {
		t.Fatalf("InvalidMessages = %d, want 1", got)
	}
}

func TestCheckpointForgedShareRejected(t *testing.T) {
	rig := newCkptRig(t, 4)
	sh, err := checkpoint.Sign(ckptTestMeta(1), 2, rig.keys[2])
	if err != nil {
		t.Fatal(err)
	}
	sh.Meta.StateRoot[0] ^= 1 // signature no longer covers the tuple
	rig.engines[0].OnMessage(2, &Message{Kind: KindCheckpointSig, CheckpointSig: &sh}, 0)
	if got := rig.engines[0].Stats().CheckpointSigs; got != 0 {
		t.Fatalf("forged share counted (CheckpointSigs=%d)", got)
	}
}

func TestCheckpointPeerCertAdoptedAndDeduped(t *testing.T) {
	rig := newCkptRig(t, 4)
	m := ckptTestMeta(3)
	sigs := make([]checkpoint.Sig, 0, 3)
	for i := 0; i < 3; i++ {
		sh, err := checkpoint.Sign(m, types.ValidatorID(i), rig.keys[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, checkpoint.Sig{Validator: sh.Validator, Signature: sh.Signature})
	}
	cert := &checkpoint.Certificate{Meta: m, Sigs: sigs}
	msg := &Message{Kind: KindCheckpointCert, CheckpointCert: cert}
	rig.engines[3].OnMessage(0, msg.Clone(), 0)
	rig.engines[3].OnMessage(1, msg.Clone(), 0) // duplicate from another peer
	if len(rig.execs[3].certs) != 1 {
		t.Fatalf("delivered %d certificates, want 1 (dedupe)", len(rig.execs[3].certs))
	}
	if got := rig.engines[3].Stats().CheckpointCertsAdopted; got != 1 {
		t.Fatalf("CheckpointCertsAdopted = %d, want 1", got)
	}

	// A forged certificate (sub-quorum) must be rejected.
	forged := &checkpoint.Certificate{Meta: ckptTestMeta(4), Sigs: sigs[:2]}
	rig.engines[3].OnMessage(0, &Message{Kind: KindCheckpointCert, CheckpointCert: forged}, 0)
	if len(rig.execs[3].certs) != 1 {
		t.Fatal("sub-quorum certificate adopted")
	}

	// And one with a corrupted signature must be rejected too.
	bad := cert.Clone()
	bad.Meta = ckptTestMeta(5)
	rig.engines[3].OnMessage(0, &Message{Kind: KindCheckpointCert, CheckpointCert: bad}, 0)
	if len(rig.execs[3].certs) != 1 {
		t.Fatal("certificate with signatures over a different tuple adopted")
	}
}

func TestCheckpointStaleCertIgnored(t *testing.T) {
	rig := newCkptRig(t, 4)
	mk := func(seq uint64) *Message {
		m := ckptTestMeta(seq)
		sigs := make([]checkpoint.Sig, 0, 3)
		for i := 0; i < 3; i++ {
			sh, err := checkpoint.Sign(m, types.ValidatorID(i), rig.keys[i])
			if err != nil {
				t.Fatal(err)
			}
			sigs = append(sigs, checkpoint.Sig{Validator: sh.Validator, Signature: sh.Signature})
		}
		return &Message{Kind: KindCheckpointCert, CheckpointCert: &checkpoint.Certificate{Meta: m, Sigs: sigs}}
	}
	rig.engines[3].OnMessage(0, mk(8), 0)
	rig.engines[3].OnMessage(0, mk(4), 0) // older checkpoint arrives late
	if len(rig.execs[3].certs) != 1 || rig.execs[3].certs[0].Meta.CommitSeq != 8 {
		t.Fatalf("stale certificate delivered (got %d certs)", len(rig.execs[3].certs))
	}
}
