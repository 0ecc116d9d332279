package simnet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// TestSharedCertificateIsNotStripped: with Ed25519 verification on, one
// certificate message — a quorum of valid votes padded with one forged vote —
// goes from a validator to the three others, the one *Message shared by all
// three. Each stores the certificate without the forged vote, and the message
// keeps all four votes, deep-equal to a snapshot taken before delivery.
func TestSharedCertificateIsNotStripped(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.VerifySignatures = true
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       cfg,
		Latency:      Uniform{Base: 10 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const origin = types.ValidatorID(0)
	peers := []types.ValidatorID{1, 2, 3}
	// The origin's own headers never reach a peer, so its slots stay free for
	// the certificate built here.
	cluster.Withhold(origin, peers, 0)
	cluster.Start()
	cluster.Sim.RunFor(200 * time.Millisecond)

	var edges []types.Digest
	for _, v := range cluster.Engine(1).DAG().RoundVertices(0) {
		edges = append(edges, v.Digest())
	}
	h := engine.Header{Round: 1, Source: origin, Edges: edges, CreatedNanos: 1}
	d := h.Digest()
	sign := func(id types.ValidatorID) engine.VoteSig {
		sig, err := cluster.keys[id].Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		return engine.VoteSig{Voter: id, Signature: sig}
	}
	h.Signature = sign(origin).Signature
	cert := &engine.Certificate{Header: h, Votes: []engine.VoteSig{sign(0), sign(1), sign(2), sign(3)}}
	cert.Votes[3].Signature = mangle(cert.Votes[3].Signature)
	cert.Header.Vertex() // as the engine's Output seals what it sends
	msg := &engine.Message{Kind: engine.KindCertificate, Cert: cert}

	snapshot := &engine.Certificate{Header: cert.Header}
	for _, vs := range cert.Votes {
		snapshot.Votes = append(snapshot.Votes, engine.VoteSig{Voter: vs.Voter, Signature: bytes.Clone(vs.Signature)})
	}
	for _, to := range peers {
		cluster.send(origin, to, msg, cluster.Sim.Now())
	}
	cluster.Sim.RunFor(100 * time.Millisecond)

	if !reflect.DeepEqual(msg.Cert, snapshot) || len(msg.Cert.Votes) != 4 {
		t.Fatalf("the shared certificate changed in delivery: %d votes", len(msg.Cert.Votes))
	}
	for _, id := range peers {
		// What the validator stored is what it serves.
		out := cluster.Engine(id).OnMessage(origin, &engine.Message{Kind: engine.KindRoundRequest,
			RoundRequest: &engine.RoundRequest{FromRound: 1}}, cluster.Sim.Now())
		var stored *engine.Certificate
		for _, c := range out.Unicasts[0].Msg.CertResponse.Certs {
			if c.Digest() == d {
				stored = c
			}
		}
		if stored == nil {
			t.Fatalf("validator %s does not hold the certificate", id)
		}
		if len(stored.Votes) != 3 || stored == cert {
			t.Fatalf("validator %s stored the certificate with %d votes, want a new one with 3", id, len(stored.Votes))
		}
		for _, vs := range stored.Votes {
			if vs.Voter == 3 {
				t.Fatalf("validator %s stored the forged vote", id)
			}
		}
	}
}
