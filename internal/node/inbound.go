package node

import (
	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// Inbound is the transport handler of a node that does not exist yet. A
// transport needs its handler to bind its listener, New needs the bound
// transport, and peers deliver as soon as the listener is up: Handle holds
// those deliveries — blocking the transport's reader, the same backpressure
// HandleMessage exerts when the pre-verify queue is full — until Bind hands
// over the node.
//
//	in := node.NewInbound()
//	tr, err := transport.NewTCP(transport.TCPConfig{..., Handler: in.Handle})
//	nd, err := node.New(cfg, tr)
//	in.Bind(nd) // nil when New failed, so the transport can close
type Inbound struct {
	bound chan struct{}
	node  *Node // written once, before bound closes
}

// NewInbound returns an unbound handler.
func NewInbound() *Inbound {
	return &Inbound{bound: make(chan struct{})}
}

// Handle delivers a message to the bound node, waiting for Bind first.
// Safe for concurrent use.
func (in *Inbound) Handle(from types.ValidatorID, msg *engine.Message) {
	<-in.bound
	if in.node != nil {
		in.node.HandleMessage(from, msg)
	}
}

// Bind releases every held and future delivery into n. Bind(nil) discards
// them instead: construction failed, and the transport's readers must
// return for it to close. Call it exactly once.
func (in *Inbound) Bind(n *Node) {
	in.node = n
	close(in.bound)
}
