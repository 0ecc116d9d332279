package node_test

import (
	"sync"
	"testing"
	"time"

	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/node"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// TestInboundHoldsMessagesUntilTheNodeExists delivers a peer's message over
// real TCP between node.New and Start — the window in which a transport
// handler once captured a node that did not exist yet and killed the process
// on a nil dereference. The message must be held, not processed and not
// dropped, and reach the engine once Start has recovered the node.
func TestInboundHoldsMessagesUntilTheNodeExists(t *testing.T) {
	spec := newTCPSpec(t, 2)
	cfg := engine.DefaultConfig()
	cfg.VerifySignatures = true
	nd, err := node.New(node.Config{
		Committee:  spec.committee,
		Self:       1,
		Keys:       spec.keys[1],
		PublicKeys: spec.pubs,
		Engine:     cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	delivered := make(chan struct{})
	var once sync.Once
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: spec.addrs[1],
		PeerAddrs: map[types.ValidatorID]string{0: spec.addrs[0]},
		Handler: func(from types.ValidatorID, msg *engine.Message) {
			nd.HandleMessage(from, msg)
			once.Do(func() { close(delivered) })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, ListenAddr: spec.addrs[0],
		PeerAddrs: map[types.ValidatorID]string{1: spec.addrs[1]},
		Handler:   func(types.ValidatorID, *engine.Message) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	// A vote: it needs a signature check, so the pre-verify stage counts it.
	vote := &engine.Message{Kind: engine.KindVote, Vote: &engine.Vote{Round: 1, Origin: 1, Voter: 0}}
	if err := peer.Send(1, vote); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer's message never reached the listener")
	}
	if got := nd.PreVerifyStats().Checked; got != 0 {
		t.Fatalf("a node that was never started checked %d messages", got)
	}
	if err := nd.Start(tr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for nd.PreVerifyStats().Checked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held message never reached the node")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInboundDiscardsWhenConstructionFails: a node that is never started —
// its transport failed to bind, or Start was never reached — holds only as
// many deliveries as its queues take, and then blocks the transport's
// reader. Close must release that reader, or the transport could never close.
func TestInboundDiscardsWhenConstructionFails(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastNodeEngineConfig()
	cfg.VerifySignatures = false
	nd, err := node.New(node.Config{Committee: committee, Self: 0, Keys: kp, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		// Far more than the node queues before Start: the reader blocks.
		for i := 0; i < 20000; i++ {
			nd.HandleMessage(1, &engine.Message{Kind: engine.KindVote, Vote: &engine.Vote{}})
		}
	}()
	select {
	case <-released:
		t.Fatal("a never-started node took every delivery: nothing bounds what it holds")
	case <-time.After(100 * time.Millisecond):
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("HandleMessage still blocked after Close")
	}
}
