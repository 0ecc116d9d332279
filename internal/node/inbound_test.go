package node_test

import (
	"sync"
	"testing"
	"time"

	"hammerhead/internal/engine"
	"hammerhead/internal/node"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// TestInboundHoldsMessagesUntilTheNodeExists delivers a peer's message over
// real TCP between a validator binding its listener and node.New returning —
// the window in which a handler that captured the not-yet-assigned node
// pointer dereferenced nil and killed the process. The message must wait,
// and reach the node once it is bound.
func TestInboundHoldsMessagesUntilTheNodeExists(t *testing.T) {
	spec := newTCPSpec(t, 2)
	inbound := node.NewInbound()
	arrived := make(chan struct{})
	var once sync.Once
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: spec.addrs[1],
		PeerAddrs: map[types.ValidatorID]string{0: spec.addrs[0]},
		Handler: func(from types.ValidatorID, msg *engine.Message) {
			once.Do(func() { close(arrived) })
			inbound.Handle(from, msg)
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
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer's message never reached the listener")
	}

	cfg := engine.DefaultConfig()
	cfg.VerifySignatures = true
	nd, err := node.New(node.Config{
		Committee:  spec.committee,
		Self:       1,
		Keys:       spec.keys[1],
		PublicKeys: spec.pubs,
		Engine:     cfg,
	}, tr)
	inbound.Bind(nd)
	if err != nil {
		_ = tr.Close()
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Start(); err != nil {
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

// TestInboundDiscardsWhenConstructionFails: Bind(nil) must release the
// transport's readers, or the transport could never close.
func TestInboundDiscardsWhenConstructionFails(t *testing.T) {
	inbound := node.NewInbound()
	held := make(chan struct{})
	go func() {
		inbound.Handle(0, &engine.Message{Kind: engine.KindVote, Vote: &engine.Vote{}})
		close(held)
	}()
	inbound.Bind(nil)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("Handle still blocked after Bind(nil)")
	}
}
