package rpc

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"hammerhead/internal/types"
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
	var ev CommitEvent
	if err := json.Unmarshal(data, &ev); err != nil || name != "commit" || ev.Seq != 1 {
		t.Fatalf("stream event %q %s (err %v), want commit 1", name, data, err)
	}
}
