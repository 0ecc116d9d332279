package rpc

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"hammerhead/internal/metrics"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// TestGatewayDropsStalledClient pins the public listener's timeouts: a client
// that connects, sends half a request line and goes quiet is disconnected
// when the header timeout runs out, while a commit stream — a response that
// legitimately stays open — outlives the same timeout and keeps delivering.
// The gateway's values are constants; the test checks they are the ones on
// the server, then shortens the server's copy so it need not wait them out.
func TestGatewayDropsStalledClient(t *testing.T) {
	g, err := New(Config{
		Addr:   "127.0.0.1:0",
		Submit: func(string, types.Transaction) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	if g.server.ReadHeaderTimeout != readHeaderTimeout || g.server.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("server timeouts: read-header %v idle %v, want the constants %v / %v",
			g.server.ReadHeaderTimeout, g.server.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if g.server.ReadTimeout != 0 || g.server.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut the long-lived /v1/commits stream",
			g.server.ReadTimeout, g.server.WriteTimeout)
	}
	const short = 200 * time.Millisecond
	g.server.ReadHeaderTimeout = short // not yet serving: no one else reads it
	g.Start()

	stream := openStream(t, "http://"+g.Addr(), "")

	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/sta")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers a timed-out header read with at most an error
	// status and then closes; reading to the end must hit that close, not
	// our own deadline.
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a client stalled mid-request-line was still connected after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < short/2 {
		t.Fatalf("connection closed after %v, before the header timeout %v could have run", waited, short)
	}

	// The stream was opened before the stalled client and is older than the
	// timeout by now: it must still deliver.
	g.ObserveCommit(syntheticCommit(1, 2))
	name, data := stream.next(t)
	var ev rpcapi.CommitEvent
	if err := json.Unmarshal(data, &ev); err != nil || name != "commit" || ev.Seq != 1 {
		t.Fatalf("stream event %q %s (err %v), want commit 1", name, data, err)
	}
}

// TestGatewayEvictsSlowSubscriber: a subscriber that stops reading is
// disconnected once a batch has sat unwritten for the stream write timeout,
// instead of parking its handler — and the payloads it copied out of the
// ring — for as long as the connection stays open. Meanwhile the commit path
// never waits on it, and a subscriber that does read sees every event.
func TestGatewayEvictsSlowSubscriber(t *testing.T) {
	reg := metrics.NewRegistry()
	g, err := New(Config{
		Addr:    "127.0.0.1:0",
		Submit:  func(string, types.Transaction) error { return nil },
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	if g.writeTimeout != streamWriteTimeout || streamWriteTimeout <= 0 {
		t.Fatalf("stream write timeout %v, want the constant %v", g.writeTimeout, streamWriteTimeout)
	}
	g.writeTimeout = 300 * time.Millisecond // not yet serving: no one else reads it
	g.Start()

	// The stalled subscriber: sends the request, never reads a byte.
	stalled, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /v1/commits?full=1&from=0 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	good := openStream(t, "http://"+g.Addr(), "0")

	// 48 commits of 256 KB: several times what the two sockets' buffers can
	// absorb on the stalled connection; the reading subscriber takes each as
	// it lands, so the ring's budget never evicts one it still needs.
	payload := make([]byte, 256<<10)
	evictions := reg.Counter("hammerhead_rpc_stream_evictions_total")
	var slowest time.Duration
	for seq := uint64(1); seq <= 48; seq++ {
		start := time.Now()
		g.ObserveCommit(syntheticCommit(seq, types.Round(2*seq), payload))
		slowest = max(slowest, time.Since(start))
		name, data := good.next(t)
		var ev rpcapi.CommitEvent
		if err := json.Unmarshal(data, &ev); err != nil || name != "commit" || ev.Seq != seq {
			t.Fatalf("reading subscriber got %q seq %d (err %v), want commit %d", name, ev.Seq, err, seq)
		}
	}
	if slowest > g.writeTimeout/2 {
		t.Fatalf("ObserveCommit took %v while a subscriber was stalled; the commit path must not wait on streams", slowest)
	}
	for deadline := time.Now().Add(10 * time.Second); evictions.Value() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled subscriber's handler was still parked 10s after its write timed out")
		}
	}
	if got := evictions.Value(); got != 1 {
		t.Fatalf("stream evictions = %d, want 1 (the reading subscriber must stay)", got)
	}
	// The server closed the evicted connection: draining what the sockets
	// had buffered ends in EOF or a reset, not in our own read deadline.
	if err := stalled.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, stalled); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("evicted subscriber's connection was left open")
	}
}
