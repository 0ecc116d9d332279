package rpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/dag"
	"hammerhead/internal/execution"
	"hammerhead/internal/mempool"
	"hammerhead/internal/metrics"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// newTestGateway boots a gateway over a 2-lane fair pool and a live executor,
// serving on an ephemeral port.
func newTestGateway(t *testing.T, mutate func(*Config)) (*Gateway, *mempool.FairPool, *execution.Executor, string) {
	t.Helper()
	pool := mempool.NewFair(mempool.FairConfig{MaxSize: 64, Lanes: 2})
	exec := execution.NewExecutor(execution.NewKVState(), execution.Config{})
	reg := metrics.NewRegistry()
	cfg := Config{
		Addr:      "127.0.0.1:0",
		Validator: 3,
		Submit:    pool.SubmitClient,
		Lane:      pool.LaneFor,
		LaneStats: pool.LaneStats,
		ReadKV:    exec.ReadKV,
		RootAt:    exec.RootAt,
		Status: func() rpcapi.StatusResponse {
			return rpcapi.StatusResponse{Round: 7, HighestRound: 9, LastOrdered: 6, AppliedSeq: exec.AppliedSeq()}
		},
		Metrics: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(func() { _ = g.Close() })
	return g, pool, exec, "http://" + g.Addr()
}

// syntheticCommit builds a two-vertex commit carrying the payloads.
func syntheticCommit(seq uint64, round types.Round, payloads ...[]byte) bullshark.CommittedSubDAG {
	batch := &types.Batch{}
	for i, p := range payloads {
		batch.Transactions = append(batch.Transactions, types.Transaction{ID: seq*100 + uint64(i), Payload: p})
	}
	v := dag.NewVertex(round-1, 1, nil, batch, 0)
	anchor := dag.NewVertex(round, 0, nil, nil, 0)
	return bullshark.CommittedSubDAG{Index: seq, Anchor: anchor, Vertices: []*dag.Vertex{v, anchor}}
}

// applyCommit feeds one synthetic commit through executor and gateway, the
// way the node's commit loop does.
func applyCommit(g *Gateway, exec *execution.Executor, seq uint64, round types.Round, payloads ...[]byte) {
	sub := syntheticCommit(seq, round, payloads...)
	exec.ApplyCommit(sub)
	g.ObserveCommit(sub)
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestGatewaySubmitBatch(t *testing.T) {
	_, pool, _, base := newTestGateway(t, nil)
	req := rpcapi.SubmitRequest{Client: "alice", Txs: []rpcapi.SubmitTx{
		{ID: 1, Payload: []byte("a")},
		{Payload: []byte("b")}, // ID assigned by the gateway
	}}
	resp, body := postJSON(t, base+"/v1/tx", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out rpcapi.SubmitResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 2 || out.Rejected != 0 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/0", out.Accepted, out.Rejected)
	}
	if out.Lane != pool.LaneFor("alice") {
		t.Fatalf("lane = %d, want %d", out.Lane, pool.LaneFor("alice"))
	}
	if got := pool.Pending(); got != 2 {
		t.Fatalf("pool pending = %d, want 2", got)
	}
	// The drained transactions carry submit timestamps and the assigned ID.
	b := pool.NextBatch(0, 10)
	if b == nil || len(b.Transactions) != 2 {
		t.Fatalf("drained %v", b)
	}
	for _, tx := range b.Transactions {
		if tx.ID == 0 || tx.SubmitTimeNanos == 0 {
			t.Fatalf("tx missing ID or submit time: %+v", tx)
		}
	}
}

func TestGatewaySubmitBackpressure429(t *testing.T) {
	_, pool, _, base := newTestGateway(t, nil)
	// Saturate alice's lane (cap = 32 of the 64-wide pool).
	var txs []rpcapi.SubmitTx
	for i := 0; i < 64; i++ {
		txs = append(txs, rpcapi.SubmitTx{Payload: []byte("x")})
	}
	resp, body := postJSON(t, base+"/v1/tx", rpcapi.SubmitRequest{Client: "alice", Txs: txs})
	var out rpcapi.SubmitResponse
	_ = json.Unmarshal(body, &out)
	if resp.StatusCode != http.StatusOK || out.Rejected == 0 {
		t.Fatalf("mixed batch: status %d rejected %d, want 200 with rejections", resp.StatusCode, out.Rejected)
	}
	// A fully rejected batch surfaces as 429 with per-tx errors.
	resp, body = postJSON(t, base+"/v1/tx", rpcapi.SubmitRequest{Client: "alice", Txs: txs[:2]})
	_ = json.Unmarshal(body, &out)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated lane: status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if len(out.Errors) != 2 || !strings.Contains(out.Errors[0].Error, "full") {
		t.Fatalf("errors = %+v", out.Errors)
	}
	// Another client's lane is unaffected — admission fairness at the API.
	other := "bob"
	if pool.LaneFor(other) == pool.LaneFor("alice") {
		for _, c := range []string{"carol", "dave", "erin"} {
			if pool.LaneFor(c) != pool.LaneFor("alice") {
				other = c
				break
			}
		}
	}
	resp, _ = postJSON(t, base+"/v1/tx", rpcapi.SubmitRequest{Client: other, Txs: txs[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("light client rejected while another lane is saturated: %d", resp.StatusCode)
	}
}

func TestGatewayKVReadWithCursor(t *testing.T) {
	g, _, exec, base := newTestGateway(t, nil)
	applyCommit(g, exec, 1, 2, execution.PutOp([]byte("acct-1"), []byte("100")))
	applyCommit(g, exec, 2, 4, execution.PutOp([]byte("acct-1"), []byte("250")))

	resp, err := http.Get(base + "/v1/kv/acct-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out rpcapi.KVResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if string(out.Value) != "250" || out.Version != 2 || !out.Found {
		t.Fatalf("kv read = %+v", out)
	}
	if out.AppliedSeq != 2 || out.AppliedRound != 4 || out.StateRoot == "" {
		t.Fatalf("cursor = %+v, want seq 2 round 4 with a root", out)
	}

	resp2, err := http.Get(base + "/v1/kv/missing-key")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key status = %d, want 404", resp2.StatusCode)
	}
}

func TestGatewayStatus(t *testing.T) {
	g, _, _, base := newTestGateway(t, nil)
	applyCommit(g, nil2(), 1, 2)

	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out rpcapi.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Validator != 3 || out.Round != 7 || out.HighestRound != 9 || out.LastOrdered != 6 {
		t.Fatalf("status = %+v", out)
	}
	if out.Commits != 1 {
		t.Fatalf("commits = %d, want 1", out.Commits)
	}
	if len(out.Lanes) != 2 || out.MempoolCapacity != 64 {
		t.Fatalf("lanes = %+v capacity = %d", out.Lanes, out.MempoolCapacity)
	}
}

// nil2 gives applyCommit an executor sink for status-only tests.
func nil2() *execution.Executor {
	return execution.NewExecutor(execution.NewKVState(), execution.Config{})
}

// sseClient reads commit events off a /v1/commits stream.
type sseClient struct {
	resp   *http.Response
	reader *bufio.Reader
}

func openStream(t *testing.T, base string, from string) *sseClient {
	t.Helper()
	url := base + "/v1/commits"
	if from != "" {
		url += "?from=" + from
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return &sseClient{resp: resp, reader: bufio.NewReader(resp.Body)}
}

// next reads one event (name, decoded commit payload). Fails the test on
// timeout via the response deadline-less read — callers keep events flowing.
func (c *sseClient) next(t *testing.T) (string, []byte) {
	t.Helper()
	name, _, data := c.frame(t)
	return name, data
}

// frame reads one event with its id line ("" when it has none).
func (c *sseClient) frame(t *testing.T) (name, id string, data []byte) {
	t.Helper()
	for {
		line, err := c.reader.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && data != nil:
			return name, id, data
		}
	}
}

func TestGatewayCommitStreamResume(t *testing.T) {
	g, _, exec, base := newTestGateway(t, nil)
	for seq := uint64(1); seq <= 5; seq++ {
		applyCommit(g, exec, seq, types.Round(seq*2), execution.PutOp([]byte{byte(seq)}, []byte("v")))
	}

	// Resume from mid-stream: from=2 must deliver 3, 4, 5 in order.
	c := openStream(t, base, "2")
	for want := uint64(3); want <= 5; want++ {
		name, data := c.next(t)
		if name != "commit" {
			t.Fatalf("event = %s, want commit", name)
		}
		var ev rpcapi.CommitEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("resumed event seq = %d, want %d", ev.Seq, want)
		}
		if want == 5 && (len(ev.TxIDs) != 1 || ev.StateRoot == "") {
			t.Fatalf("event missing tx ids or root: %+v", ev)
		}
	}

	// Live delivery continues on the same stream. (Raw read in the goroutine:
	// t.Fatal must stay on the test goroutine.)
	done := make(chan rpcapi.CommitEvent, 1)
	go func() {
		for {
			line, err := c.reader.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				var ev rpcapi.CommitEvent
				if json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimRight(line, "\n"), "data: ")), &ev) == nil {
					done <- ev
					return
				}
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	applyCommit(g, exec, 6, 12)
	select {
	case ev := <-done:
		if ev.Seq != 6 {
			t.Fatalf("live event seq = %d, want 6", ev.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live commit never reached the stream")
	}
}

func TestGatewayCommitStreamGap(t *testing.T) {
	g, _, exec, base := newTestGateway(t, nil)
	for seq := uint64(1); seq <= historyDepth+6; seq++ {
		applyCommit(g, exec, seq, types.Round(seq*2))
	}
	// Ring holds the newest historyDepth commits, 7 on; resuming from 2 must
	// announce the gap, then continue from the oldest retained commit.
	c := openStream(t, base, "2")
	name, data := c.next(t)
	if name != "gap" {
		t.Fatalf("first event = %s, want gap", name)
	}
	var gap rpcapi.GapEvent
	if err := json.Unmarshal(data, &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Oldest != 7 {
		t.Fatalf("gap oldest = %d, want 7", gap.Oldest)
	}
	name, data = c.next(t)
	var ev rpcapi.CommitEvent
	_ = json.Unmarshal(data, &ev)
	if name != "commit" || ev.Seq != 7 {
		t.Fatalf("post-gap event = %s seq %d, want commit 7", name, ev.Seq)
	}

	// An operator reads the same window off /v1/status and /metrics.
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status rpcapi.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.HistoryOldestSeq != gap.Oldest {
		t.Fatalf("status history_oldest_seq = %d, the stream's gap said %d", status.HistoryOldestSeq, gap.Oldest)
	}
	text := g.cfg.Metrics.Render()
	g.mu.Lock()
	held := g.ring.bytes
	g.mu.Unlock()
	for _, line := range []string{
		fmt.Sprintf("hammerhead_rpc_history_events %d", historyDepth),
		fmt.Sprintf("hammerhead_rpc_history_bytes %d", held),
		"hammerhead_rpc_stream_evictions_total 0",
	} {
		if held == 0 || !strings.Contains(text, line) {
			t.Fatalf("metrics exposition missing %q (ring holds %d bytes):\n%s", line, held, text)
		}
	}
}

func TestGatewayMetricsExposition(t *testing.T) {
	_, _, _, base := newTestGateway(t, nil)
	postJSON(t, base+"/v1/tx", rpcapi.SubmitRequest{Client: "m", Txs: []rpcapi.SubmitTx{{Payload: []byte("p")}}})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, metric := range []string{
		"hammerhead_rpc_requests_total",
		"hammerhead_rpc_submit_latency_seconds",
		"hammerhead_mempool_lane_depth",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("metrics exposition missing %s:\n%s", metric, text)
		}
	}
	if !strings.Contains(text, "hammerhead_rpc_requests_total 1") {
		t.Fatalf("request counter not incremented:\n%s", text)
	}
}

func TestGatewayRequiresSubmit(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("New without Submit must fail")
	}
}
