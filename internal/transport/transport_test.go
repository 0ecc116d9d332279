package transport_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/internal/engine"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// collector is a thread-safe inbound message sink.
type collector struct {
	mu   sync.Mutex
	msgs []received
	cond *sync.Cond
}

type received struct {
	from types.ValidatorID
	msg  *engine.Message
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handler(from types.ValidatorID, msg *engine.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, received{from: from, msg: msg})
	c.cond.Broadcast()
}

// waitFor blocks until n messages arrived or the timeout expires.
func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) []received {
	t.Helper()
	deadline := time.Now().Add(timeout)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.mu.Lock()
		defer c.mu.Unlock()
		for len(c.msgs) < n {
			c.cond.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		t.Fatalf("timed out waiting for %d messages, have %d", n, got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]received(nil), c.msgs...)
}

func voteMsg(voter types.ValidatorID, round types.Round) *engine.Message {
	return &engine.Message{Kind: engine.KindVote, Vote: &engine.Vote{
		Round: round, Voter: voter, Origin: 0,
	}}
}

func TestChannelSendAndBroadcast(t *testing.T) {
	net := transport.NewChannelNetwork(64)
	cols := make([]*collector, 3)
	trs := make([]*transport.ChannelTransport, 3)
	for i := range cols {
		cols[i] = newCollector()
		tr, err := net.Join(types.ValidatorID(i), cols[i].handler)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		defer tr.Close()
	}

	if err := trs[0].Send(1, voteMsg(0, 5)); err != nil {
		t.Fatal(err)
	}
	got := cols[1].waitFor(t, 1, time.Second)
	if got[0].from != 0 || got[0].msg.Vote.Round != 5 {
		t.Fatalf("received %+v", got[0])
	}

	if err := trs[2].Broadcast(voteMsg(2, 9)); err != nil {
		t.Fatal(err)
	}
	cols[0].waitFor(t, 1, time.Second)
	cols[1].waitFor(t, 2, time.Second)
}

// TestChannelTransportSharesTheMessage: a unicast and a broadcast hand every
// handler the sender's own *Message — no copy, no encoding.
func TestChannelTransportSharesTheMessage(t *testing.T) {
	net := transport.NewChannelNetwork(64)
	cols := make([]*collector, 4)
	trs := make([]*transport.ChannelTransport, 4)
	for i := range cols {
		cols[i] = newCollector()
		tr, err := net.Join(types.ValidatorID(i), cols[i].handler)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		defer tr.Close()
	}
	uni, bcast := voteMsg(0, 1), voteMsg(0, 2)
	if err := trs[0].Send(1, uni); err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Broadcast(bcast); err != nil {
		t.Fatal(err)
	}
	if got := cols[1].waitFor(t, 2, time.Second); got[0].msg != uni || got[1].msg != bcast {
		t.Fatal("validator 1 was handed a copy, not the sender's message")
	}
	for _, i := range []int{2, 3} {
		if got := cols[i].waitFor(t, 1, time.Second); got[0].msg != bcast {
			t.Fatalf("validator %d was handed a copy of the broadcast, not the sender's message", i)
		}
	}
}

func TestChannelUnknownPeer(t *testing.T) {
	net := transport.NewChannelNetwork(8)
	tr, err := net.Join(0, func(types.ValidatorID, *engine.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(9, voteMsg(0, 1)); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
}

func TestChannelCloseStopsDelivery(t *testing.T) {
	net := transport.NewChannelNetwork(8)
	col := newCollector()
	tr0, err := net.Join(0, func(types.ValidatorID, *engine.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := net.Join(1, col.handler)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr0.Send(1, voteMsg(0, 1)); err == nil {
		t.Fatal("send to departed peer must fail")
	}
	if err := tr1.Send(0, voteMsg(1, 1)); err != transport.ErrClosed {
		t.Fatalf("send on closed transport: err = %v, want ErrClosed", err)
	}
	_ = tr0.Close()
}

func TestChannelDoubleJoinRejected(t *testing.T) {
	net := transport.NewChannelNetwork(8)
	tr, err := net.Join(0, func(types.ValidatorID, *engine.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := net.Join(0, func(types.ValidatorID, *engine.Message) {}); err == nil {
		t.Fatal("duplicate join must fail")
	}
}

// newTCPPair boots n TCP endpoints on loopback with full mesh addressing.
func newTCPMesh(t *testing.T, n int) ([]*transport.TCPTransport, []*collector) {
	t.Helper()
	cols := make([]*collector, n)
	trs := make([]*transport.TCPTransport, n)
	addrs := make(map[types.ValidatorID]string, n)

	// First pass: bind listeners on :0 to learn ports.
	for i := 0; i < n; i++ {
		cols[i] = newCollector()
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self:       types.ValidatorID(i),
			ListenAddr: "127.0.0.1:0",
			PeerAddrs:  map[types.ValidatorID]string{}, // filled below via second transport set
			Handler:    cols[i].handler,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[types.ValidatorID(i)] = tr.Addr()
		trs[i] = tr
	}
	// Rebuild with full peer maps (simpler than dynamic peer injection).
	for i := 0; i < n; i++ {
		_ = trs[i].Close()
	}
	for i := 0; i < n; i++ {
		peers := make(map[types.ValidatorID]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[types.ValidatorID(j)] = addrs[types.ValidatorID(j)]
			}
		}
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self:       types.ValidatorID(i),
			ListenAddr: addrs[types.ValidatorID(i)],
			PeerAddrs:  peers,
			Handler:    cols[i].handler,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(func() { _ = tr.Close() })
	}
	return trs, cols
}

func TestTCPSendReceive(t *testing.T) {
	trs, cols := newTCPMesh(t, 2)
	if err := trs[0].Send(1, voteMsg(0, 7)); err != nil {
		t.Fatal(err)
	}
	got := cols[1].waitFor(t, 1, 5*time.Second)
	if got[0].from != 0 || got[0].msg.Kind != engine.KindVote || got[0].msg.Vote.Round != 7 {
		t.Fatalf("received %+v", got[0])
	}
}

func TestTCPBroadcastRoundTrip(t *testing.T) {
	trs, cols := newTCPMesh(t, 4)
	// A full header with payload exercises round-tripping of nested
	// structs.
	hdr := &engine.Message{Kind: engine.KindHeader, Header: &engine.Header{
		Round:  3,
		Source: 2,
		Edges:  []types.Digest{types.HashBytes([]byte("e1")), types.HashBytes([]byte("e2"))},
		Batch: &types.Batch{Transactions: []types.Transaction{
			{ID: 42, SubmitTimeNanos: 99, Payload: []byte("payload-bytes")},
		}},
		Signature: []byte("sig"),
	}}
	if err := trs[2].Broadcast(hdr); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3} {
		got := cols[i].waitFor(t, 1, 5*time.Second)
		h := got[0].msg.Header
		if h == nil || h.Round != 3 || h.Source != 2 || len(h.Edges) != 2 {
			t.Fatalf("node %d: header mangled: %+v", i, got[0].msg)
		}
		if h.Batch == nil || h.Batch.Transactions[0].ID != 42 ||
			string(h.Batch.Transactions[0].Payload) != "payload-bytes" {
			t.Fatalf("node %d: batch mangled: %+v", i, h.Batch)
		}
		if h.Digest() != hdr.Header.Digest() {
			t.Fatalf("node %d: digest changed across the wire", i)
		}
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	trs, cols := newTCPMesh(t, 2)
	const n = 200
	for i := 0; i < n; i++ {
		if err := trs[0].Send(1, voteMsg(0, types.Round(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := cols[1].waitFor(t, n, 10*time.Second)
	for i, r := range got {
		if r.msg.Vote.Round != types.Round(i) {
			t.Fatalf("message %d has round %d: per-connection FIFO violated", i, r.msg.Vote.Round)
		}
	}
}

func TestTCPUnknownPeerAndClose(t *testing.T) {
	trs, _ := newTCPMesh(t, 2)
	if err := trs[0].Send(7, voteMsg(0, 1)); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
	if err := trs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Send(1, voteMsg(0, 1)); err != transport.ErrClosed {
		t.Fatalf("send after close: err = %v, want ErrClosed", err)
	}
	if err := trs[0].Close(); err != nil {
		t.Fatalf("double close must be a no-op, got %v", err)
	}
}

func TestTCPPeerComesUpLate(t *testing.T) {
	// Sender starts with a peer address that is not listening yet; the
	// redial loop must deliver once the peer binds.
	col := newCollector()
	late := newCollector()

	tr0, err := transport.NewTCP(transport.TCPConfig{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		PeerAddrs:  map[types.ValidatorID]string{},
		Handler:    col.handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr0.Close()

	// Reserve a port for the late peer by binding and closing.
	probe, err := transport.NewTCP(transport.TCPConfig{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		PeerAddrs:  map[types.ValidatorID]string{},
		Handler:    late.handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := probe.Addr()
	_ = probe.Close()

	sender, err := transport.NewTCP(transport.TCPConfig{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		PeerAddrs:  map[types.ValidatorID]string{1: lateAddr},
		Handler:    col.handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Keep sending while the peer is down; at least the post-bind sends
	// must arrive.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = sender.Send(1, voteMsg(0, types.Round(i)))
			time.Sleep(20 * time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	peer, err := transport.NewTCP(transport.TCPConfig{
		Self:       1,
		ListenAddr: lateAddr,
		PeerAddrs:  map[types.ValidatorID]string{},
		Handler:    late.handler,
	})
	if err != nil {
		t.Fatalf("late peer failed to bind %s: %v", lateAddr, err)
	}
	defer peer.Close()

	late.waitFor(t, 1, 10*time.Second)
	close(stop)
	wg.Wait()
}

// TestTCPRedialsQuicklyAfterPeerAppears pins the redial backoff. Every cold
// start has validators dialling peers that have not bound yet; with a fixed
// half-second redial delay a frame sent just after the peer appeared waited
// out the rest of the window its predecessor had opened (~350 ms here).
func TestTCPRedialsQuicklyAfterPeerAppears(t *testing.T) {
	probe, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{},
		Handler:   newCollector().handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := probe.Addr()
	_ = probe.Close()

	sender, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{1: lateAddr},
		Handler:   newCollector().handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	start := time.Now()
	if err := sender.Send(1, voteMsg(0, 0)); err != nil { // nobody listens: held while the send loop redials
		t.Fatal(err)
	}
	time.Sleep(time.Until(start.Add(100 * time.Millisecond)))
	arrived := make(chan time.Time, 1)
	peer, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: lateAddr,
		PeerAddrs: map[types.ValidatorID]string{},
		Handler: func(_ types.ValidatorID, msg *engine.Message) {
			if msg.Vote.Round == 1 {
				arrived <- time.Now()
			}
		},
	})
	if err != nil {
		t.Fatalf("late peer failed to bind %s: %v", lateAddr, err)
	}
	defer peer.Close()

	time.Sleep(time.Until(start.Add(150 * time.Millisecond)))
	sent := time.Now()
	if err := sender.Send(1, voteMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-arrived:
		if took := at.Sub(sent); took > 100*time.Millisecond {
			t.Fatalf("frame sent 50 ms after the peer bound took %v to arrive, want under 100 ms", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame never arrived")
	}
}

func TestTCPMessageKindsSurviveFraming(t *testing.T) {
	trs, cols := newTCPMesh(t, 2)
	h := engine.Header{Round: 1, Source: 0, Edges: []types.Digest{types.HashBytes([]byte("x"))}}
	msgs := []*engine.Message{
		{Kind: engine.KindHeader, Header: &h},
		{Kind: engine.KindVote, Vote: &engine.Vote{Round: 1, Voter: 0, Origin: 1, HeaderDigest: h.Digest()}},
		{Kind: engine.KindCertificate, Cert: &engine.Certificate{Header: h, Votes: []engine.VoteSig{{Voter: 0, Signature: []byte("s")}}}},
		{Kind: engine.KindRoundRequest, RoundRequest: &engine.RoundRequest{FromRound: 1}},
		{Kind: engine.KindCertResponse, CertResponse: &engine.CertResponse{Certs: []*engine.Certificate{{Header: h}}}},
	}
	for _, m := range msgs {
		if err := trs[0].Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	got := cols[1].waitFor(t, len(msgs), 10*time.Second)
	for i, r := range got {
		if r.msg.Kind != msgs[i].Kind {
			t.Fatalf("message %d kind = %s, want %s", i, r.msg.Kind, msgs[i].Kind)
		}
	}
	// Spot-check deep fields survived.
	if got[2].msg.Cert.Votes[0].Voter != 0 || string(got[2].msg.Cert.Votes[0].Signature) != "s" {
		t.Fatalf("certificate votes mangled: %+v", got[2].msg.Cert)
	}
}

func ExampleChannelNetwork() {
	net := transport.NewChannelNetwork(16)
	done := make(chan struct{})
	_, _ = net.Join(1, func(from types.ValidatorID, msg *engine.Message) {
		fmt.Println("got", msg.Kind, "from", from)
		close(done)
	})
	tr0, _ := net.Join(0, func(types.ValidatorID, *engine.Message) {})
	_ = tr0.Send(1, &engine.Message{Kind: engine.KindVote, Vote: &engine.Vote{}})
	<-done
	// Output: got vote from v0
}

// TestTCPPeerRestartResumesDelivery models the RPC-driven serving scenario:
// a sender keeps submitting at a steady clip while its peer process dies and
// a new transport rebinds the same address. The redial loop must reconnect
// and deliver the post-restart traffic without the sender ever blocking.
func TestTCPPeerRestartResumesDelivery(t *testing.T) {
	colA := newCollector()
	first := newCollector()

	peer1, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{},
		Handler:   first.handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := peer1.Addr()

	sender, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{1: peerAddr},
		Handler:   colA.handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Sustained submission stream: rounds are a monotone sequence so the
	// receiver can prove post-restart delivery.
	stop := make(chan struct{})
	var sent atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sender.Send(1, voteMsg(0, types.Round(sent.Add(1))))
			time.Sleep(5 * time.Millisecond)
		}
	}()

	first.waitFor(t, 1, 10*time.Second) // connection established, traffic flows
	if err := peer1.Close(); err != nil {
		t.Fatal(err)
	}
	// The peer is dead for a while; the sender must keep running (drops, no
	// blocking — submissions keep being accepted upstream).
	time.Sleep(300 * time.Millisecond)

	second := newCollector()
	var peer2 *transport.TCPTransport
	for attempt := 0; ; attempt++ {
		peer2, err = transport.NewTCP(transport.TCPConfig{
			Self: 1, ListenAddr: peerAddr,
			PeerAddrs: map[types.ValidatorID]string{},
			Handler:   second.handler,
		})
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("rebinding %s: %v", peerAddr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer peer2.Close()

	// The restarted peer must start receiving NEW traffic: a round sent
	// after its rebind has to arrive.
	rebindFloor := types.Round(sent.Load())
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := func() bool {
			second.mu.Lock()
			defer second.mu.Unlock()
			for _, r := range second.msgs {
				if r.msg.Vote.Round > rebindFloor {
					return true
				}
			}
			return false
		}()
		if got {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no post-restart traffic delivered: redial did not resume")
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestTCPSaturatedPeerDropsNewest pins the backpressure contract at a dead
// peer: sends past the outbound queue bound return immediately (drop-newest,
// never block), and once the peer appears only the oldest SendQueueLen+1
// frames are delivered — the queue's, and the one the send loop holds.
func TestTCPSaturatedPeerDropsNewest(t *testing.T) {
	late := newCollector()
	// Reserve an address that is not listening yet.
	probe, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{},
		Handler:   late.handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := probe.Addr()
	_ = probe.Close()

	sender, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{1: lateAddr},
		Handler:   newCollector().handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Twice the queue bound, all at once. Every Send must return promptly
	// even though nothing is draining.
	total := 2 * transport.SendQueueLen
	start := time.Now()
	for i := 0; i < total; i++ {
		if err := sender.Send(1, voteMsg(0, types.Round(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sends against a saturated peer took %v: Send blocked", elapsed)
	}

	peer, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: lateAddr,
		PeerAddrs: map[types.ValidatorID]string{},
		Handler:   late.handler,
	})
	if err != nil {
		t.Fatalf("late peer failed to bind: %v", err)
	}
	defer peer.Close()

	late.waitFor(t, 1, 15*time.Second)
	// Give the queue time to drain, then check the drop side by counting. The
	// send loop holds one frame through its failed dials and the queue holds
	// SendQueueLen more, so no more can arrive. The held frame is the first
	// one sent unless the burst filled the queue before the loop popped it;
	// then the pop freed one slot, and whichever frame was being sent at that
	// instant took it. So at most one frame from the overflow half survives,
	// where a broken bound would deliver thousands.
	time.Sleep(2 * time.Second)
	late.mu.Lock()
	defer late.mu.Unlock()
	if len(late.msgs) > transport.SendQueueLen+1 {
		t.Fatalf("delivered %d > queue bound %d + the held frame: overflow was not dropped", len(late.msgs), transport.SendQueueLen)
	}
	overflow := 0
	for _, r := range late.msgs {
		if r.msg.Vote.Round >= types.Round(transport.SendQueueLen) {
			overflow++
		}
	}
	if overflow > 1 {
		t.Fatalf("%d of %d delivered frames were sent after the queue filled, want at most one: drop-newest violated",
			overflow, len(late.msgs))
	}
}

// TestTCPFrameSentBeforePeerBindsArrives: the first frame to a peer that has
// not bound yet — a validator's first header or vote at a cold start — is
// held through the failed dials and delivered once the peer binds, not
// dropped with the first failed dial.
func TestTCPFrameSentBeforePeerBindsArrives(t *testing.T) {
	probe, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{},
		Handler:   newCollector().handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := probe.Addr()
	_ = probe.Close()

	sender, err := transport.NewTCP(transport.TCPConfig{
		Self: 0, ListenAddr: "127.0.0.1:0",
		PeerAddrs: map[types.ValidatorID]string{1: lateAddr},
		Handler:   newCollector().handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	if err := sender.Send(1, voteMsg(0, 42)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // several failed dials
	late := newCollector()
	peer, err := transport.NewTCP(transport.TCPConfig{
		Self: 1, ListenAddr: lateAddr,
		PeerAddrs: map[types.ValidatorID]string{},
		Handler:   late.handler,
	})
	if err != nil {
		t.Fatalf("late peer failed to bind %s: %v", lateAddr, err)
	}
	defer peer.Close()
	got := late.waitFor(t, 1, 5*time.Second)
	if got[0].msg.Vote.Round != 42 {
		t.Fatalf("received round %d, want the frame sent before the bind (42)", got[0].msg.Vote.Round)
	}
}
