package node_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/node"
	"hammerhead/internal/replica"
	"hammerhead/internal/rpc"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
	"hammerhead/pkg/client"
)

// bootCertNode is bootTCPNode with the trustless read tier enabled: quorum
// checkpoint certification and a tight checkpoint interval so certificates
// form within the test budget.
func (s *tcpNodeSpec) bootCertNode(t *testing.T, id types.ValidatorID, rpcAddr string) *node.Node {
	t.Helper()
	peers := map[types.ValidatorID]string{}
	for pid, addr := range s.addrs {
		if pid != id {
			peers[pid] = addr
		}
	}
	cfg := engine.DefaultConfig()
	cfg.MinRoundDelay = 20 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	cfg.ResyncInterval = 200 * time.Millisecond
	cfg.VerifySignatures = true
	nd, err := node.New(node.Config{
		Committee:          s.committee,
		Self:               id,
		Keys:               s.keys[id],
		PublicKeys:         s.pubs,
		Engine:             cfg,
		ScheduleSeed:       7,
		Execution:          true,
		CheckpointInterval: 4,
		CheckpointCerts:    true,
		MempoolLanes:       2,
		RPCAddr:            rpcAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self: id, ListenAddr: s.addrs[id],
		PeerAddrs: peers,
		Handler:   nd.HandleMessage,
	})
	if err != nil {
		_ = nd.Close()
		t.Fatal(err)
	}
	if err := nd.Start(tr); err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestTrustlessReadTierEndToEnd drives the whole trustless read stack over
// real TCP and HTTP: four validators certify checkpoints, a client performs
// a proof-carrying read verified entirely client-side, a non-voting replica
// bootstraps from the certified snapshot, re-executes the live commit
// stream, cross-checks the quorum certificates — and then serves the same
// verifiable reads itself, while redirecting submissions back to a
// validator. A client holding the wrong trust anchor must reject everything.
func TestTrustlessReadTierEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster test")
	}
	spec := newTCPSpec(t, 4)
	nodes := make([]*node.Node, 4)
	for i := range nodes {
		rpcAddr := ""
		if i == 0 {
			rpcAddr = "127.0.0.1:0"
		}
		nodes[i] = spec.bootCertNode(t, types.ValidatorID(i), rpcAddr)
		defer nodes[i].Close()
	}
	base := "http://" + nodes[0].Gateway().Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	verifier := &client.Verifier{
		Committee:  spec.committee,
		PublicKeys: spec.pubs,
		Scheme:     crypto.Insecure{},
	}
	cli, err := client.New(client.Config{Endpoints: []string{nodes[0].Gateway().Addr()}, ClientID: "trustless"})
	if err != nil {
		t.Fatal(err)
	}

	// Submit a write and wait until a quorum-certified checkpoint covers it.
	if _, err := cli.Submit(ctx, client.PutPayload([]byte("audited"), []byte("genuine"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "a certified checkpoint covering the write", func() bool {
		wire, err := cli.Checkpoint(ctx)
		if err != nil {
			return false
		}
		read, _ := cli.Get(ctx, []byte("audited"))
		return read.Found && wire.CommitSeq >= read.AppliedSeq-4
	})

	// Proof-carrying read straight off a validator, verified client-side.
	waitFor(t, 30*time.Second, "the certified state to include the write", func() bool {
		vr, err := cli.VerifiedGet(ctx, verifier, []byte("audited"))
		return err == nil && vr.Found && string(vr.Value) == "genuine"
	})

	// The wrong trust anchor (a different committee's keys) rejects the same
	// answer: trust lives in the verifier, not the endpoint.
	var wrongSeed [32]byte
	wrongSeed[0] = 0xee
	wrongPubs := make([]crypto.PublicKey, 4)
	for i := range wrongPubs {
		kp, err := crypto.NewKeyPair(crypto.Insecure{}, wrongSeed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		wrongPubs[i] = kp.Public
	}
	wrongVerifier := &client.Verifier{Committee: spec.committee, PublicKeys: wrongPubs, Scheme: crypto.Insecure{}}
	if _, err := cli.VerifiedGet(ctx, wrongVerifier, []byte("audited")); err == nil {
		t.Fatal("a foreign trust anchor accepted the validator's certificate")
	}

	// Boot a non-voting replica off the validator gateway.
	rep, err := replica.New(replica.Config{
		Validators: []string{nodes[0].Gateway().Addr()},
		Verifier:   verifier,
		RPCAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer rep.Close()

	// The replica tails, re-executes and cross-checks; once certified, it
	// serves the same proof-carrying read, verified with zero trust in it.
	repCli, err := client.New(client.Config{Endpoints: []string{rep.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "the replica to serve a verified read", func() bool {
		if rep.Err() != nil {
			t.Fatalf("replica poisoned on an honest stream: %v", rep.Err())
		}
		vr, err := repCli.VerifiedGet(ctx, verifier, []byte("audited"))
		return err == nil && vr.Found && string(vr.Value) == "genuine"
	})

	// Replica and validator agree on the certified tuple.
	repCert, ok := rep.Certificate()
	if !ok {
		t.Fatal("replica holds no cross-checked certificate")
	}
	valCert, ok := nodes[0].Executor().LatestCertificate()
	if !ok {
		t.Fatal("validator holds no certificate")
	}
	if repCert.Meta.CommitSeq > valCert.Meta.CommitSeq {
		t.Fatalf("replica certified seq %d ahead of validator %d", repCert.Meta.CommitSeq, valCert.Meta.CommitSeq)
	}

	// The replica's status declares what it is, and submissions bounce to a
	// validator with a 307 (no mempool on the read tier).
	st, err := repCli.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Replica {
		t.Fatal("replica status does not declare Replica")
	}
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Post("http://"+rep.Addr()+"/v1/tx", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("replica submit status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != base+"/v1/tx" {
		t.Fatalf("redirect location = %q, want %q", loc, base+"/v1/tx")
	}
	var se rpc.SubmitError
	if err := json.NewDecoder(resp.Body).Decode(&se); err != nil || se.Error == "" {
		t.Fatalf("redirect body: %v (%+v)", err, se)
	}
}
