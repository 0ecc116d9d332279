// Package transport moves engine messages between validators. Two
// implementations share one interface: an in-process channel transport for
// tests and single-binary clusters, and a TCP transport with length-prefixed
// wire-codec frames, identity handshake and automatic reconnection for real
// deployments (the paper's implementation uses QUIC point-to-point channels;
// TCP gives the same reliable pairwise abstraction from the standard
// library).
package transport

import (
	"errors"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// Handler consumes an inbound message. Implementations are called from
// transport-owned goroutines; handlers must be safe for concurrent use (the
// node funnels into a single loop channel).
type Handler func(from types.ValidatorID, msg *engine.Message)

// Transport delivers engine messages to peers.
type Transport interface {
	// Send transmits to one peer. Best effort: transports buffer and retry
	// transient failures internally; an error means the message was dropped.
	Send(to types.ValidatorID, msg *engine.Message) error
	// Broadcast transmits to every other committee member.
	Broadcast(msg *engine.Message) error
	// Close releases all resources and stops delivery.
	Close() error
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to a validator with no route.
var ErrUnknownPeer = errors.New("transport: unknown peer")
