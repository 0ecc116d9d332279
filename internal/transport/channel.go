package transport

import (
	"fmt"
	"sync"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// ChannelNetwork connects in-process validators through buffered channels —
// the transport used by single-binary clusters and integration tests. Safe
// for concurrent use.
type ChannelNetwork struct {
	mu        sync.RWMutex
	endpoints map[types.ValidatorID]*ChannelTransport
	bufSize   int
}

// NewChannelNetwork creates an empty network; each endpoint gets a delivery
// queue of bufSize messages (drop-newest beyond that, like a saturated
// socket buffer).
func NewChannelNetwork(bufSize int) *ChannelNetwork {
	if bufSize < 1 {
		bufSize = 1024
	}
	return &ChannelNetwork{
		endpoints: make(map[types.ValidatorID]*ChannelTransport),
		bufSize:   bufSize,
	}
}

// Join registers a validator and returns its transport. The handler is
// invoked from a dedicated delivery goroutine.
func (n *ChannelNetwork) Join(id types.ValidatorID, handler Handler) (*ChannelTransport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[id]; dup {
		return nil, fmt.Errorf("transport: validator %s already joined", id)
	}
	t := &ChannelTransport{
		network: n,
		self:    id,
		inbox:   make(chan envelope, n.bufSize),
		done:    make(chan struct{}),
	}
	n.endpoints[id] = t
	t.wg.Add(1)
	go t.deliverLoop(handler)
	return t, nil
}

func (n *ChannelNetwork) lookup(id types.ValidatorID) (*ChannelTransport, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	t, ok := n.endpoints[id]
	return t, ok
}

func (n *ChannelNetwork) peers(except types.ValidatorID) []*ChannelTransport {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*ChannelTransport, 0, len(n.endpoints))
	for id, t := range n.endpoints {
		if id != except {
			out = append(out, t)
		}
	}
	return out
}

func (n *ChannelNetwork) leave(id types.ValidatorID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, id)
}

type envelope struct {
	from types.ValidatorID
	msg  *engine.Message
}

// ChannelTransport is one validator's endpoint in a ChannelNetwork.
type ChannelTransport struct {
	network *ChannelNetwork
	self    types.ValidatorID
	inbox   chan envelope
	done    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool

	dropped uint64
	dropMu  sync.Mutex
}

var _ Transport = (*ChannelTransport)(nil)

func (t *ChannelTransport) deliverLoop(handler Handler) {
	defer t.wg.Done()
	for {
		select {
		case env := <-t.inbox:
			handler(env.from, env.msg)
		case <-t.done:
			return
		}
	}
}

// enqueue delivers into this endpoint's inbox without blocking the sender.
// The message is cloned so each recipient owns its payload, as it would
// after decoding from a TCP stream: pre-verify stages mark and mutate
// payloads, and a broadcast must not let recipients observe each other's
// (or the sender's) copies.
func (t *ChannelTransport) enqueue(from types.ValidatorID, msg *engine.Message) {
	msg = msg.Clone()
	select {
	case t.inbox <- envelope{from: from, msg: msg}:
	case <-t.done:
	default:
		// Queue full: drop, as a saturated socket would. The engine's
		// resync path recovers lost certificates.
		t.dropMu.Lock()
		t.dropped++
		t.dropMu.Unlock()
	}
}

// Send implements Transport.
func (t *ChannelTransport) Send(to types.ValidatorID, msg *engine.Message) error {
	if t.isClosed() {
		return ErrClosed
	}
	peer, ok := t.network.lookup(to)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	peer.enqueue(t.self, msg)
	return nil
}

// Broadcast implements Transport.
func (t *ChannelTransport) Broadcast(msg *engine.Message) error {
	if t.isClosed() {
		return ErrClosed
	}
	for _, peer := range t.network.peers(t.self) {
		peer.enqueue(t.self, msg)
	}
	return nil
}

// Dropped returns the number of messages dropped at this endpoint's inbox.
func (t *ChannelTransport) Dropped() uint64 {
	t.dropMu.Lock()
	defer t.dropMu.Unlock()
	return t.dropped
}

func (t *ChannelTransport) isClosed() bool {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	return t.closed
}

// Close implements Transport.
func (t *ChannelTransport) Close() error {
	t.closeMu.Lock()
	if t.closed {
		t.closeMu.Unlock()
		return nil
	}
	t.closed = true
	t.closeMu.Unlock()

	t.network.leave(t.self)
	close(t.done)
	t.wg.Wait()
	return nil
}
