package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// Wire framing constants.
const (
	_magic        = uint32(0x48484541) // "HHEA": HammerHead engine announce
	_maxFrameSize = 64 << 20
	_dialTimeout  = 3 * time.Second
	// A failed dial is retried after _redialMin, doubling per failure up to
	// _redialMax and starting over once a dial succeeds: a peer that binds a
	// moment after us (every cold start) is reached within milliseconds of
	// its bind, while one that is down costs two dials a second, as before.
	_redialMin = 10 * time.Millisecond
	_redialMax = 500 * time.Millisecond
)

// SendQueueLen is each peer's outbound queue bound. A saturated peer (slow,
// partitioned, or down) drops the NEWEST frames beyond it — Send never
// blocks the caller, which is what keeps an RPC-driven ingest path from
// stalling on one dead validator; the protocol's resync machinery backfills
// whatever the drops cost.
const SendQueueLen = 4096

// TCPConfig configures a TCP endpoint.
type TCPConfig struct {
	// Self is this validator's ID.
	Self types.ValidatorID
	// ListenAddr is the local bind address ("host:port").
	ListenAddr string
	// PeerAddrs maps every other validator to its dial address.
	PeerAddrs map[types.ValidatorID]string
	// Handler receives inbound messages.
	Handler Handler
}

// TCPTransport implements Transport over persistent TCP connections: one
// outbound connection per peer (with automatic redial) carrying
// length-prefixed wire-codec frames, and a listener accepting inbound streams
// that start with a magic + sender-ID handshake.
type TCPTransport struct {
	cfg      TCPConfig
	listener net.Listener

	mu     sync.Mutex
	peers  map[types.ValidatorID]*tcpPeer
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

// tcpPeer is one outbound connection with its send queue.
type tcpPeer struct {
	addr  string
	queue chan []byte
}

// NewTCP binds the listener and starts outbound queues for all peers.
func NewTCP(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("transport: TCP handler is required")
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", cfg.ListenAddr, err)
	}
	t := &TCPTransport{
		cfg:      cfg,
		listener: ln,
		peers:    make(map[types.ValidatorID]*tcpPeer),
		done:     make(chan struct{}),
	}
	for id, addr := range cfg.PeerAddrs {
		if id == cfg.Self {
			continue
		}
		p := &tcpPeer{addr: addr, queue: make(chan []byte, SendQueueLen)}
		t.peers[id] = p
		t.wg.Add(1)
		go t.sendLoop(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// Send implements Transport.
func (t *TCPTransport) Send(to types.ValidatorID, msg *engine.Message) error {
	frame, err := encodeFrame(msg)
	if err != nil {
		return err
	}
	return t.enqueue(to, frame)
}

// Broadcast implements Transport. The message is encoded once.
func (t *TCPTransport) Broadcast(msg *engine.Message) error {
	frame, err := encodeFrame(msg)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ids := make([]types.ValidatorID, 0, len(t.peers))
	for id := range t.peers {
		ids = append(ids, id)
	}
	t.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		if err := t.enqueue(id, frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (t *TCPTransport) enqueue(to types.ValidatorID, frame []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	p, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	select {
	case p.queue <- frame:
		return nil
	default:
		// Queue full: drop like a saturated socket; resync recovers.
		return nil
	}
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done)
	err := t.listener.Close()
	t.wg.Wait()
	return err
}

// ---- outbound ----

// sendLoop owns one peer's connection: dial (with redial on failure), write
// the handshake, then drain the queue. The frame in hand is kept through
// failed dials and retried once the peer is reachable: every cold start has
// validators sending their first headers and votes to peers that bind a few
// milliseconds later. Only the queue bound drops frames (drop-newest, in
// enqueue).
func (t *TCPTransport) sendLoop(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	redial := _redialMin
	for {
		// Wait for the next frame first so idle peers hold no connection
		// retry churn after Close.
		var frame []byte
		select {
		case frame = <-p.queue:
		case <-t.done:
			return
		}
		for {
			if conn == nil {
				c, err := t.dialAndHandshake(p.addr)
				if err != nil {
					select {
					case <-time.After(redial):
					case <-t.done:
						return
					}
					redial = min(2*redial, _redialMax)
					continue // keep the frame; redial
				}
				conn, redial = c, _redialMin
			}
			if _, err := conn.Write(frame); err != nil {
				_ = conn.Close()
				conn = nil
				continue // redial and retry the same frame
			}
			break
		}
	}
}

func (t *TCPTransport) dialAndHandshake(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, _dialTimeout)
	if err != nil {
		return nil, err
	}
	var hello [8]byte
	binary.BigEndian.PutUint32(hello[:4], _magic)
	binary.BigEndian.PutUint32(hello[4:], uint32(t.cfg.Self))
	if _, err := conn.Write(hello[:]); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// ---- inbound ----

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient accept error: brief pause, keep serving.
			select {
			case <-time.After(50 * time.Millisecond):
			case <-t.done:
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()

	go func() { // unblock the read on shutdown
		<-t.done
		_ = conn.Close()
	}()

	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	if binary.BigEndian.Uint32(hello[:4]) != _magic {
		return
	}
	from := types.ValidatorID(binary.BigEndian.Uint32(hello[4:]))

	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > _maxFrameSize {
			return
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		// body is allocated per frame, so the decoded message may alias it
		// (engine.DecodeMessage is zero-copy for byte fields).
		msg, err := engine.DecodeMessage(body)
		if err != nil {
			return
		}
		t.cfg.Handler(from, msg)
	}
}

// encodeFrame serializes a message with its length prefix in the engine's
// versioned wire format — one allocation per frame, prefix included.
func encodeFrame(msg *engine.Message) ([]byte, error) {
	frame, err := engine.AppendMessage(make([]byte, 4, msg.EncodedSize()+20), msg)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding %s: %w", msg.Kind, err)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame, nil
}
