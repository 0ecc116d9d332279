package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// freshHarness drives a validator-side executor so tests can cut genuinely
// quorum-certified checkpoints at different commit sequences — the staleness
// tests need answers that verify cryptographically and differ only in age.
type freshHarness struct {
	committee *types.Committee
	keys      []crypto.KeyPair
	verifier  *Verifier
	producer  *execution.Executor
	nextSeq   uint64
}

func newFreshHarness(t *testing.T) *freshHarness {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	scheme := crypto.Ed25519{}
	var seed [32]byte
	seed[0] = 0x77
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
	return &freshHarness{
		committee: committee,
		keys:      keys,
		verifier:  &Verifier{Committee: committee, PublicKeys: pubs, Scheme: scheme},
		producer:  execution.NewExecutor(execution.NewKVState(), execution.Config{CheckpointInterval: 1000, CheckpointCerts: true}),
	}
}

// commit applies one put to the upstream executor.
func (h *freshHarness) commit(key, value []byte) {
	h.nextSeq++
	round := types.Round(2 * h.nextSeq)
	batch := &types.Batch{Transactions: []types.Transaction{{
		ID: h.nextSeq, Payload: execution.PutOp(key, value),
	}}}
	anchor := dag.NewVertex(round, 0, nil, nil, 0)
	h.producer.ApplyCommit(bullshark.CommittedSubDAG{
		Index:    h.nextSeq,
		Anchor:   anchor,
		Vertices: []*dag.Vertex{dag.NewVertex(round-1, 1, nil, batch, 0), anchor},
	})
}

// certify cuts a checkpoint and attaches a genuine 2f+1 certificate over it.
func (h *freshHarness) certify(t *testing.T) execution.Snapshot {
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
	for i := 0; i < 3; i++ {
		sh, err := checkpoint.Sign(m, types.ValidatorID(i), h.keys[i])
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, checkpoint.Sig{Validator: sh.Validator, Signature: sh.Signature})
	}
	if !h.producer.AttachCertificate(snap.CommitSeq, cert) {
		t.Fatal("attach failed")
	}
	return snap
}

// proofResponse freezes the executor's current certified proof for key into
// the gateway wire body, exactly as internal/rpc serves it.
func (h *freshHarness) proofResponse(t *testing.T, key []byte) rpcapi.KVProofResponse {
	t.Helper()
	pr, ok := h.producer.ProvenRead(key)
	if !ok {
		t.Fatal("no proven read — certificate not attached?")
	}
	_, entry, err := pr.Proof.Verify(key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, steps := rpcapi.ProofToWire(pr.Proof)
	return rpcapi.KVProofResponse{
		Key: key, Value: entry.Value, Found: entry.Found,
		Leaf: leaf, Steps: steps,
		StateVersion: pr.Version, StateOpaque: pr.Opaque,
		Cert: rpcapi.CertToWire(pr.Cert),
	}
}

// serveProof is a single-purpose gateway: every proof-carrying KV read gets
// the frozen response, like a replica that stopped catching up.
func serveProof(resp rpcapi.KVProofResponse, hits *atomic.Uint64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
}

// TestVerifiedGetFreshFailsOverFromLaggingReplica pins the replica-lag
// behavior: a stale replica's answer verifies cryptographically (it IS
// genuinely certified) but misses the freshness bound, so the client rejects
// it with ErrStaleRead and retries on the next endpoint, which holds a newer
// certified checkpoint.
func TestVerifiedGetFreshFailsOverFromLaggingReplica(t *testing.T) {
	h := newFreshHarness(t)
	key := []byte("acct")

	h.commit(key, []byte("v1"))
	staleSnap := h.certify(t)
	staleResp := h.proofResponse(t, key)

	h.commit(key, []byte("v2"))
	freshSnap := h.certify(t)
	freshResp := h.proofResponse(t, key)

	var staleHits, freshHits atomic.Uint64
	stale := serveProof(staleResp, &staleHits)
	defer stale.Close()
	fresh := serveProof(freshResp, &freshHits)
	defer fresh.Close()

	ctx := context.Background()

	// Unbounded: the first (stale) endpoint's certified answer is accepted.
	c, err := New(Config{Endpoints: []string{stale.URL, fresh.URL}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.VerifiedGetFresh(ctx, h.verifier, key, Freshness{})
	if err != nil {
		t.Fatalf("unbounded read: %v", err)
	}
	if r.Cert.Meta.CommitSeq != staleSnap.CommitSeq || string(r.Value) != "v1" {
		t.Fatalf("unbounded read got seq %d value %q; want the stale replica's seq %d v1",
			r.Cert.Meta.CommitSeq, r.Value, staleSnap.CommitSeq)
	}

	// Bounded: a fresh client starts at the stale endpoint again, rejects its
	// certified-but-old answer, and fails over to the fresh one.
	c2, err := New(Config{Endpoints: []string{stale.URL, fresh.URL}})
	if err != nil {
		t.Fatal(err)
	}
	r, err = c2.VerifiedGetFresh(ctx, h.verifier, key, Freshness{MinCommitSeq: freshSnap.CommitSeq})
	if err != nil {
		t.Fatalf("bounded read with a fresh endpoint available: %v", err)
	}
	if r.Cert.Meta.CommitSeq != freshSnap.CommitSeq || string(r.Value) != "v2" {
		t.Fatalf("bounded read got seq %d value %q; want seq %d v2",
			r.Cert.Meta.CommitSeq, r.Value, freshSnap.CommitSeq)
	}
	if staleHits.Load() == 0 {
		t.Fatal("bounded read never touched the stale replica — failover untested")
	}
	if freshHits.Load() == 0 {
		t.Fatal("bounded read never reached the fresh replica")
	}
}

// TestVerifiedGetFreshAllStaleReturnsErrStaleRead: when every endpoint lags
// the bound, the read fails with ErrStaleRead rather than silently returning
// old state — and the same holds for a round bound.
func TestVerifiedGetFreshAllStaleReturnsErrStaleRead(t *testing.T) {
	h := newFreshHarness(t)
	key := []byte("acct")
	h.commit(key, []byte("v1"))
	snap := h.certify(t)
	resp := h.proofResponse(t, key)

	srv := serveProof(resp, nil)
	defer srv.Close()
	c, err := New(Config{Endpoints: []string{srv.URL}, Attempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := c.VerifiedGetFresh(ctx, h.verifier, key, Freshness{MinCommitSeq: snap.CommitSeq + 1}); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("seq-bounded read on a stale cluster: err = %v, want ErrStaleRead", err)
	}
	if _, err := c.VerifiedGetFresh(ctx, h.verifier, key, Freshness{MinRound: snap.Round + 1}); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("round-bounded read on a stale cluster: err = %v, want ErrStaleRead", err)
	}
	// The bound at exactly the certified point is satisfiable.
	if _, err := c.VerifiedGetFresh(ctx, h.verifier, key, Freshness{MinCommitSeq: snap.CommitSeq, MinRound: snap.Round}); err != nil {
		t.Fatalf("exact-bound read: %v", err)
	}
}
