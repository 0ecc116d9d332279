package replica

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
	"hammerhead/pkg/client"
	"hammerhead/pkg/rpcapi"
)

// harness pairs a validator-side executor ("upstream") with the committee
// trust anchor, so tests can cut certified checkpoints and replay the commit
// stream into a replica without any networking.
type harness struct {
	committee *types.Committee
	keys      []crypto.KeyPair
	verifier  *client.Verifier
	producer  *execution.Executor
	nextSeq   uint64
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	scheme := crypto.Ed25519{}
	var seed [32]byte
	seed[0] = 0x5a
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
	return &harness{
		committee: committee,
		keys:      keys,
		verifier:  &client.Verifier{Committee: committee, PublicKeys: pubs, Scheme: scheme},
		producer:  execution.NewExecutor(execution.NewKVState(), execution.Config{CheckpointInterval: 1000, CheckpointCerts: true}),
	}
}

func makeCommit(seq uint64, round types.Round, payloads [][]byte) bullshark.CommittedSubDAG {
	batch := &types.Batch{}
	for j, p := range payloads {
		batch.Transactions = append(batch.Transactions, types.Transaction{
			ID:      seq*1000 + uint64(j),
			Payload: p,
		})
	}
	anchor := dag.NewVertex(round, 0, nil, nil, 0)
	vertices := []*dag.Vertex{dag.NewVertex(round-1, 1, nil, batch, 0), anchor}
	return bullshark.CommittedSubDAG{Index: seq, Anchor: anchor, Vertices: vertices}
}

// commit applies one commit with the given payloads to the upstream executor
// and returns the full commit event a validator gateway would stream.
func (h *harness) commit(payloads ...[]byte) rpcapi.CommitEvent {
	h.nextSeq++
	sub := makeCommit(h.nextSeq, types.Round(2*h.nextSeq), payloads)
	h.producer.ApplyCommit(sub)
	cd := execution.CommitDigestOf(&sub)
	return rpcapi.CommitEvent{
		Seq:          sub.Index,
		Round:        uint64(sub.Anchor.Round),
		TxCount:      len(payloads),
		CommitDigest: hex.EncodeToString(cd[:]),
		Payloads:     payloads,
	}
}

// certify cuts a checkpoint on the upstream executor and assembles a genuine
// quorum certificate over its tuple, attaching it so the executor serves a
// certified blob.
func (h *harness) certify(t testing.TB, signers int) (*checkpoint.Certificate, execution.Snapshot) {
	t.Helper()
	snap, err := h.producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	m := checkpoint.Meta{
		Round:       snap.Round,
		CommitSeq:   snap.CommitSeq,
		StateRoot:   snap.StateRoot,
		StateDigest: snap.StateDigest,
		SchedDigest: checkpoint.SchedDigestOf(snap.SchedulerState),
	}
	cert := &checkpoint.Certificate{Meta: m}
	for i := 0; i < signers; i++ {
		sh, err := checkpoint.Sign(m, types.ValidatorID(i), h.keys[i])
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, checkpoint.Sig{Validator: sh.Validator, Signature: sh.Signature})
	}
	if !h.producer.AttachCertificate(snap.CommitSeq, cert) {
		t.Fatal("attach failed")
	}
	return cert, snap
}

func (h *harness) newReplica(t testing.TB) *Replica {
	t.Helper()
	r, err := New(Config{
		// Never dialed in these tests: events and certificates are fed
		// directly through ApplyCommitEvent / CrossCheck.
		Validators: []string{"127.0.0.1:1"},
		Verifier:   h.verifier,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReplicaBootstrapTailAndProve(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("alpha"), []byte("1")))
	h.commit(execution.PutOp([]byte("beta"), []byte("2")))
	_, snap := h.certify(t, 3)

	blob, ok := h.producer.CertifiedSnapshotBlob()
	if !ok {
		t.Fatal("producer serves no certified blob")
	}
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if r.AppliedSeq() != snap.CommitSeq {
		t.Fatalf("applied seq %d, want %d", r.AppliedSeq(), snap.CommitSeq)
	}

	// Tail two more commits, then cross-check the next quorum certificate:
	// the replica's re-executed roots must match the validators' bit for bit.
	ev3 := h.commit(execution.PutOp([]byte("alpha"), []byte("3")))
	ev4 := h.commit(execution.DeleteOp([]byte("beta")))
	for _, ev := range []rpcapi.CommitEvent{ev3, ev4} {
		if err := r.ApplyCommitEvent(ev); err != nil {
			t.Fatalf("apply %d: %v", ev.Seq, err)
		}
	}
	if r.ChainedRoot() != h.producer.StateRoot() {
		t.Fatal("re-executed chained root diverged from upstream")
	}
	cert2, _ := h.certify(t, 3)
	if err := r.CrossCheck(cert2); err != nil {
		t.Fatalf("cross-check: %v", err)
	}
	got, ok := r.Certificate()
	if !ok || got.Meta.CommitSeq != cert2.Meta.CommitSeq {
		t.Fatal("replica did not promote the cross-checked certificate")
	}

	// Proof-carrying reads now serve the certified state, verifiable with
	// zero trust in the replica.
	pr, ok := r.ProvenRead([]byte("alpha"))
	if !ok {
		t.Fatal("no proven read after cross-check")
	}
	root, entry, err := pr.Proof.Verify([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if execution.StateDigestFrom(pr.Version, pr.Opaque, root) != pr.Cert.Meta.StateDigest {
		t.Fatal("proof does not reproduce the certified digest")
	}
	if !entry.Found || string(entry.Value) != "3" {
		t.Fatalf("proven alpha = %q (found=%v), want 3", entry.Value, entry.Found)
	}
	prB, ok := r.ProvenRead([]byte("beta"))
	if !ok {
		t.Fatal("no proven read for deleted key")
	}
	if _, entry, err := prB.Proof.Verify([]byte("beta")); err != nil || entry.Found {
		t.Fatalf("deleted key still proven present (err=%v)", err)
	}
}

func TestReplicaDetectsTamperedStream(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("honest")))
	h.certify(t, 3)
	blob, _ := h.producer.CertifiedSnapshotBlob()
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatal(err)
	}

	// The upstream commits an honest write, but the stream the replica sees
	// carries a tampered payload (same digest claimed — the serving node
	// lies about what was executed).
	ev := h.commit(execution.PutOp([]byte("k"), []byte("honest-2")))
	tampered := ev
	tampered.Payloads = [][]byte{execution.PutOp([]byte("k"), []byte("EVIL"))}
	if err := r.ApplyCommitEvent(tampered); err != nil {
		t.Fatalf("optimistic apply should succeed: %v", err)
	}

	cert, _ := h.certify(t, 3)
	err := r.CrossCheck(cert)
	if err == nil {
		t.Fatal("tampered stream survived certificate cross-check")
	}
	if !strings.Contains(err.Error(), "DIVERGENCE") {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.Err() == nil {
		t.Fatal("replica not poisoned after divergence")
	}
	if _, ok := r.ProvenRead([]byte("k")); ok {
		t.Fatal("poisoned replica still serves proven reads")
	}
	if _, ok := r.Certificate(); ok {
		t.Fatal("poisoned replica still advertises a certificate")
	}
}

func TestReplicaDetectsForgedCommitDigest(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v")))
	h.certify(t, 3)
	blob, _ := h.producer.CertifiedSnapshotBlob()
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatal(err)
	}

	// Correct payloads, forged commit digest: the chained root check catches
	// it even though the state digest matches.
	ev := h.commit(execution.PutOp([]byte("k"), []byte("v2")))
	forged := types.HashBytes([]byte("not the commit"))
	ev.CommitDigest = hex.EncodeToString(forged[:])
	if err := r.ApplyCommitEvent(ev); err != nil {
		t.Fatal(err)
	}
	cert, _ := h.certify(t, 3)
	if err := r.CrossCheck(cert); err == nil {
		t.Fatal("forged commit digest survived cross-check")
	}
}

func TestReplicaRejectsBadBootstrap(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v")))
	r := h.newReplica(t)

	// Uncertified snapshot.
	snap, err := h.producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := execution.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.BootstrapFromBlob(blob); err == nil {
		t.Fatal("uncertified snapshot accepted")
	}

	// Sub-quorum certificate.
	h.commit(execution.PutOp([]byte("k"), []byte("v2")))
	_, snap2 := h.certify(t, 2)
	blob2, _ := h.producer.CertifiedSnapshotBlob()
	if blob2 != nil {
		if err := r.BootstrapFromBlob(blob2); err == nil {
			t.Fatal("sub-quorum certificate accepted")
		}
	}
	_ = snap2
	if r.AppliedSeq() != 0 {
		t.Fatal("rejected bootstrap mutated the replica")
	}
}

// TestReplicaBootstrapSkipsABadResponder: a responder whose snapshot blob
// fails verification does not stop a replica's start. Bootstrap moves on to
// the next endpoint and installs its certified blob; only when every
// endpoint's blob fails in the same pass does it give up, at once rather
// than at its deadline.
func TestReplicaBootstrapSkipsABadResponder(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v")))
	_, snap := h.certify(t, 3)
	genuine, ok := h.producer.CertifiedSnapshotBlob()
	if !ok {
		t.Fatal("producer serves no certified blob")
	}
	// The forgery: the genuine blob with one signature of its certificate
	// broken.
	tampered, err := execution.DecodeSnapshot(bytes.Clone(genuine))
	if err != nil {
		t.Fatal(err)
	}
	tampered.Cert.Sigs[0].Signature[0] ^= 0xFF
	forged, err := execution.EncodeSnapshot(tampered)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(blob []byte) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/snapshot" {
				http.NotFound(w, req)
				return
			}
			_, _ = w.Write(blob)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	bad, good := serve(forged), serve(genuine)
	bootstrap := func(endpoints ...string) (*Replica, error) {
		r, err := New(Config{Validators: endpoints, Verifier: h.verifier})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return r, r.Bootstrap(ctx)
	}

	r, err := bootstrap(bad, good)
	if err != nil {
		t.Fatalf("a forged blob at the first endpoint aborted the bootstrap: %v", err)
	}
	if r.AppliedSeq() != snap.CommitSeq {
		t.Fatalf("applied seq %d, want the certified %d", r.AppliedSeq(), snap.CommitSeq)
	}

	r, err = bootstrap(bad, bad)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("every endpoint forged: Bootstrap returned %v, want the rejection", err)
	}
	if r.AppliedSeq() != 0 {
		t.Fatal("a rejected blob was installed")
	}
}

func TestReplicaStreamGapRequestsResync(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v")))
	h.certify(t, 3)
	blob, _ := h.producer.CertifiedSnapshotBlob()
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatal(err)
	}
	ev := h.commit(execution.PutOp([]byte("k"), []byte("v2")))
	ev.Seq += 5 // the gateway ring aged past us
	if err := r.ApplyCommitEvent(ev); err != errResync {
		t.Fatalf("gap produced %v, want errResync", err)
	}
}

// TestReplicaReleasesViewsAtPromotion: a ring entry's frozen view exists to be
// promoted by a certificate, and nothing at or below the certified sequence
// can be promoted again — so after a cross-check the replica holds views for
// its uncertified tail only, while every retained entry still answers RootAt
// (the gateway stamps stream events with it). Older certificates stay no-ops
// and a later divergence still poisons.
func TestReplicaReleasesViewsAtPromotion(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v0")))
	h.certify(t, 3)
	blob, _ := h.producer.CertifiedSnapshotBlob()
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatal(err)
	}
	views := func() (held []uint64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, e := range r.ring {
			if e.frozen != nil {
				held = append(held, e.seq)
			}
		}
		return held
	}
	if got := views(); len(got) != 0 {
		t.Fatalf("the bootstrap entry is already certified, yet seqs %v hold views", got)
	}

	roots := map[uint64]types.Digest{1: r.ChainedRoot()}
	tail := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ev := h.commit(execution.PutOp([]byte("k"), []byte(fmt.Sprintf("v%d", h.nextSeq+1))))
			if err := r.ApplyCommitEvent(ev); err != nil {
				t.Fatal(err)
			}
			roots[ev.Seq] = r.ChainedRoot()
		}
	}
	tail(3) // seqs 2..4
	certAt4, _ := h.certify(t, 3)
	tail(2) // seqs 5, 6
	if got := views(); len(got) != 5 {
		t.Fatalf("uncertified tail 2..6 should hold 5 views, have %v", got)
	}

	if err := r.CrossCheck(certAt4); err != nil {
		t.Fatal(err)
	}
	if got := views(); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("after promoting seq 4 views remain at %v, want only the uncertified tail [5 6]", got)
	}
	for seq, want := range roots {
		if got, ok := r.RootAt(seq); !ok || got != want {
			t.Fatalf("RootAt(%d) = %s (ok=%v) after promotion, want %s", seq, got, ok, want)
		}
	}
	pr, ok := r.ProvenRead([]byte("k"))
	if !ok || pr.Cert.Meta.CommitSeq != 4 {
		t.Fatal("promoted view does not serve proven reads at seq 4")
	}
	if _, entry, err := pr.Proof.Verify([]byte("k")); err != nil || string(entry.Value) != "v4" {
		t.Fatalf("proven k = %q (err %v), want the value certified at seq 4", entry.Value, err)
	}

	// A certificate at or below the certified sequence changes nothing.
	older := *certAt4
	older.Meta.CommitSeq = 3
	older.Meta.StateRoot = types.HashBytes([]byte("would diverge if it were checked"))
	if err := r.CrossCheck(&older); err != nil {
		t.Fatalf("certificate for an already-covered sequence must be a no-op, got %v", err)
	}
	if got, _ := r.Certificate(); got.Meta.CommitSeq != 4 {
		t.Fatalf("certified seq moved to %d", got.Meta.CommitSeq)
	}

	// Divergence above the certified sequence still poisons.
	certAt6, _ := h.certify(t, 3)
	bad := *certAt6
	bad.Meta.StateDigest = types.HashBytes([]byte("not what the replica executed"))
	if err := r.CrossCheck(&bad); err == nil || r.Err() == nil {
		t.Fatal("a certificate contradicting the re-execution did not poison the replica")
	}
}

// pushed is the stream frame a validator gateway sends for cert.
func pushed(cert *checkpoint.Certificate) rpcapi.CheckpointCert { return rpcapi.CertToWire(cert) }

// TestReplicaHoldsPushedCertificateUntilApplied: a certificate the stream
// pushes ahead of the replica's re-execution is held, not dropped, and
// promoted the moment the replica applies the sequence it certifies; a newer
// one pushed meanwhile replaces it.
func TestReplicaHoldsPushedCertificateUntilApplied(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v1")))
	h.certify(t, 3)
	blob, _ := h.producer.CertifiedSnapshotBlob()
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatal(err)
	}
	ev2 := h.commit(execution.PutOp([]byte("k"), []byte("v2")))
	cert2, _ := h.certify(t, 3)
	ev3 := h.commit(execution.PutOp([]byte("k"), []byte("v3")))
	ev4 := h.commit(execution.PutOp([]byte("k"), []byte("v4")))
	cert4, _ := h.certify(t, 3)

	if err := r.onCheckpoint(pushed(cert2)); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Certificate(); got.Meta.CommitSeq != 1 {
		t.Fatalf("certified seq %d before the replica re-executed seq 2", got.Meta.CommitSeq)
	}
	if err := r.ApplyCommitEvent(ev2); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Certificate(); got.Meta.CommitSeq != 2 {
		t.Fatalf("held certificate not promoted when seq 2 was applied (certified %d)", got.Meta.CommitSeq)
	}

	// Two pushed ahead: the newer replaces the older.
	if err := r.onCheckpoint(pushed(cert4)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []rpcapi.CommitEvent{ev3, ev4} {
		if err := r.ApplyCommitEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := r.Certificate(); got.Meta.CommitSeq != 4 {
		t.Fatalf("certified seq %d after applying seq 4, want 4", got.Meta.CommitSeq)
	}
	if v, _ := provenValue(t, r, "k"); v != "v4" {
		t.Fatalf("proven k = %q, want v4", v)
	}
}

// provenValue verifies one proof-carrying read off the replica.
func provenValue(t *testing.T, r *Replica, key string) (string, uint64) {
	t.Helper()
	pr, ok := r.ProvenRead([]byte(key))
	if !ok {
		t.Fatal("no proven read")
	}
	root, entry, err := pr.Proof.Verify([]byte(key))
	if err != nil || execution.StateDigestFrom(pr.Version, pr.Opaque, root) != pr.Cert.Meta.StateDigest {
		t.Fatalf("proof does not reproduce the certified digest (err %v)", err)
	}
	return string(entry.Value), pr.Cert.Meta.CommitSeq
}

// TestReplicaDropsForgedPushedCertificate: a pushed frame that is not a
// valid quorum certificate — malformed, short of a quorum, or with a broken
// signature — proves nothing about the stream. It is dropped without
// poisoning the replica or stopping the stream, and the genuine certificate
// that follows still promotes.
func TestReplicaDropsForgedPushedCertificate(t *testing.T) {
	h := newHarness(t)
	h.commit(execution.PutOp([]byte("k"), []byte("v1")))
	h.certify(t, 3)
	blob, _ := h.producer.CertifiedSnapshotBlob()
	r := h.newReplica(t)
	if err := r.BootstrapFromBlob(blob); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyCommitEvent(h.commit(execution.PutOp([]byte("k"), []byte("v2")))); err != nil {
		t.Fatal(err)
	}
	genuine, _ := h.certify(t, 3)

	badSig := pushed(genuine)
	badSig.Sigs = append([]rpcapi.CheckpointSig(nil), badSig.Sigs...)
	badSig.Sigs[0].Signature = append([]byte(nil), badSig.Sigs[0].Signature...)
	badSig.Sigs[0].Signature[0] ^= 0xff
	short := pushed(genuine)
	short.Sigs = short.Sigs[:2]
	// A forged tuple: what the replica re-executed is not what it claims.
	lie := pushed(genuine)
	lie.StateDigest = rpcapi.DigestToHex(types.HashBytes([]byte("lie")))
	malformed := pushed(genuine)
	malformed.StateRoot = "not hex"
	for name, frame := range map[string]rpcapi.CheckpointCert{
		"broken signature": badSig, "sub-quorum": short, "forged tuple": lie, "malformed": malformed,
	} {
		if err := r.onCheckpoint(frame); err != nil {
			t.Fatalf("%s: stopped the stream: %v", name, err)
		}
		if r.Err() != nil {
			t.Fatalf("%s: poisoned the replica: %v", name, r.Err())
		}
		if got, _ := r.Certificate(); got.Meta.CommitSeq != 1 {
			t.Fatalf("%s: promoted (certified seq %d)", name, got.Meta.CommitSeq)
		}
	}
	if err := r.onCheckpoint(pushed(genuine)); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Certificate(); got.Meta.CommitSeq != 2 {
		t.Fatalf("the genuine certificate after the forgeries did not promote (certified %d)", got.Meta.CommitSeq)
	}
}

// TestReplicaPoisonedByPushedContradiction: a valid quorum certificate that
// contradicts the replica's re-execution still poisons it and stops the
// stream, whether it arrives after the sequence was applied or is held until
// the tampered commit arrives.
func TestReplicaPoisonedByPushedContradiction(t *testing.T) {
	for _, held := range []bool{false, true} {
		h := newHarness(t)
		h.commit(execution.PutOp([]byte("k"), []byte("honest")))
		h.certify(t, 3)
		blob, _ := h.producer.CertifiedSnapshotBlob()
		r := h.newReplica(t)
		if err := r.BootstrapFromBlob(blob); err != nil {
			t.Fatal(err)
		}
		tampered := h.commit(execution.PutOp([]byte("k"), []byte("honest-2")))
		tampered.Payloads = [][]byte{execution.PutOp([]byte("k"), []byte("EVIL"))}
		cert, _ := h.certify(t, 3)
		var err error
		if held {
			if err = r.onCheckpoint(pushed(cert)); err != nil {
				t.Fatalf("a certificate ahead of the re-execution stopped the stream: %v", err)
			}
			err = r.ApplyCommitEvent(tampered)
		} else {
			if err = r.ApplyCommitEvent(tampered); err != nil {
				t.Fatal(err)
			}
			err = r.onCheckpoint(pushed(cert))
		}
		if err == nil || r.Err() == nil || !strings.Contains(err.Error(), "DIVERGENCE") {
			t.Fatalf("held=%v: contradiction returned %v, replica error %v", held, err, r.Err())
		}
		if _, ok := r.ProvenRead([]byte("k")); ok {
			t.Fatalf("held=%v: poisoned replica serves proven reads", held)
		}
	}
}
