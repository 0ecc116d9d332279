package node_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/node"
	"hammerhead/internal/obs"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// buildTraceNode is buildExecNode with tracing on and a loopback gateway, so
// the full waterfall — through streamed and applied — is both recorded and
// servable over GET /v1/trace/{txid}.
func buildTraceNode(t *testing.T, tc *testCluster, id types.ValidatorID, walPath string) *node.Node {
	t.Helper()
	n := tc.committee.Size()
	scheme := crypto.Insecure{}
	var seed [32]byte
	pubs := make([]crypto.PublicKey, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(scheme, seed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = kp.Public
	}
	kp, err := crypto.NewKeyPair(scheme, seed, uint32(id))
	if err != nil {
		t.Fatal(err)
	}
	engCfg := fastNodeEngineConfig()
	engCfg.PipelineDepth = 64
	nd, err := node.New(node.Config{
		Committee:    tc.committee,
		Self:         id,
		Keys:         kp,
		PublicKeys:   pubs,
		Engine:       engCfg,
		ScheduleSeed: 7,
		WALPath:      walPath,
		Execution:    true,
		RPCAddr:      "127.0.0.1:0",
		Trace:        true,
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			if !replayed {
				tc.commits[id] = append(tc.commits[id], sub.Anchor.Digest())
			}
			tc.txSeen[id] += sub.TxCount()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.join(t, id, nd)
	return nd
}

// fetchTrace queries one gateway's trace endpoint. A 404 (unknown tx on this
// validator) returns ok=false.
func fetchTrace(t *testing.T, addr string, id uint64) (rpcapi.TraceResponse, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/trace/%d", addr, id))
	if err != nil {
		t.Fatalf("trace fetch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return rpcapi.TraceResponse{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", resp.StatusCode)
	}
	var tr rpcapi.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	return tr, true
}

// assertWaterfall checks one trace response's invariants: stage names appear
// in canonical lifecycle order and timestamps never go backwards. Holds for
// partial traces too (a peer that never admitted the tx serves the
// ordered-onward suffix).
func assertWaterfall(t *testing.T, id uint64, tr rpcapi.TraceResponse) {
	t.Helper()
	order := make(map[string]int, obs.NumStages)
	for i, name := range obs.StageNames() {
		order[name] = i
	}
	prevStage := -1
	prevTime := int64(0)
	for _, s := range tr.Stages {
		idx, ok := order[s.Stage]
		if !ok {
			t.Fatalf("tx %d: unknown stage %q", id, s.Stage)
		}
		if idx <= prevStage {
			t.Fatalf("tx %d: stage %q out of canonical order", id, s.Stage)
		}
		if s.TimeNanos < prevTime {
			t.Fatalf("tx %d: stage %q timestamp went backwards (%d < %d)", id, s.Stage, s.TimeNanos, prevTime)
		}
		prevStage, prevTime = idx, s.TimeNanos
	}
}

// waitComplete polls every gateway until one serves a Complete waterfall for
// the tx — the validator that admitted it holds all seven stages from a
// single clock.
func waitComplete(t *testing.T, addrs []string, id uint64, timeout time.Duration) rpcapi.TraceResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, addr := range addrs {
			tr, ok := fetchTrace(t, addr, id)
			if !ok {
				continue
			}
			assertWaterfall(t, id, tr)
			if tr.Complete {
				return tr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tx %d: no gateway served a complete waterfall", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTraceCoversFullCommitPath boots a traced 4-node cluster with execution
// on, submits transactions to every node, and asserts each accepted tx yields
// a complete monotonic admitted→proposed→cert_formed→ordered→durable→
// streamed→applied waterfall on the gateway of the validator that admitted
// it. It then SIGKILL-equivalently restarts the WAL-backed validator and
// checks that (a) replayed commits fabricate no pre-crash timestamps — the
// recovered node serves 404 for transactions committed before the crash —
// and (b) transactions submitted after recovery trace end to end again.
func TestTraceCoversFullCommitPath(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "v0.wal")
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	tc.nodes = append(tc.nodes, buildTraceNode(t, tc, 0, walPath))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildTraceNode(t, tc, types.ValidatorID(i), ""))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]string, 4)
	for i, nd := range tc.nodes {
		addrs[i] = nd.Gateway().Addr()
	}

	const preCrashTxs = 24
	for i := 0; i < preCrashTxs; i++ {
		if err := tc.nodes[i%4].Submit(types.Transaction{ID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	tc.waitCommits(t, 3, 20*time.Second)

	// Every accepted transaction must reach a complete waterfall on the
	// admitting validator's gateway; every partial copy elsewhere must be
	// canonical-ordered and monotonic too (assertWaterfall checks each
	// response inside the poll).
	for id := uint64(1); id <= preCrashTxs; id++ {
		tr := waitComplete(t, addrs, id, 20*time.Second)
		if len(tr.Stages) != obs.NumStages {
			t.Fatalf("tx %d: complete waterfall has %d stages, want %d: %+v", id, len(tr.Stages), obs.NumStages, tr.Stages)
		}
	}

	// Crash the WAL-backed validator.
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// Restart it from the WAL on a fresh transport endpoint.
	scheme := crypto.Insecure{}
	var seed [32]byte
	pubs := make([]crypto.PublicKey, 4)
	for i := 0; i < 4; i++ {
		kp, kerr := crypto.NewKeyPair(scheme, seed, uint32(i))
		if kerr != nil {
			t.Fatal(kerr)
		}
		pubs[i] = kp.Public
	}
	kp, err := crypto.NewKeyPair(scheme, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var freshCommits int
	engCfg := fastNodeEngineConfig()
	engCfg.PipelineDepth = 64
	restarted, err := node.New(node.Config{
		Committee:    committee,
		Self:         0,
		Keys:         kp,
		PublicKeys:   pubs,
		Engine:       engCfg,
		ScheduleSeed: 7,
		WALPath:      walPath,
		Execution:    true,
		RPCAddr:      "127.0.0.1:0",
		Trace:        true,
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			if !replayed {
				mu.Lock()
				freshCommits++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.join(t, 0, restarted)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	defer func() {
		for _, nd := range tc.nodes[1:] {
			_ = nd.Close()
		}
	}()

	// Replayed commits record nothing: the recovered validator must not have
	// fabricated post-restart timestamps for transactions that lived and
	// died before the crash.
	restartedAddr := restarted.Gateway().Addr()
	for id := uint64(1); id <= preCrashTxs; id++ {
		if tr, ok := fetchTrace(t, restartedAddr, id); ok {
			t.Fatalf("tx %d: recovered validator serves a trace for a pre-crash transaction: %+v", id, tr.Stages)
		}
	}

	// New transactions submitted to the recovered validator must trace end
	// to end again once it has rejoined consensus.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		fresh := freshCommits
		mu.Unlock()
		if fresh >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered node never committed fresh sub-DAGs")
		}
		time.Sleep(20 * time.Millisecond)
	}
	const postBase = 1000
	for i := 0; i < 8; i++ {
		if err := restarted.Submit(types.Transaction{ID: uint64(postBase + i)}); err != nil {
			t.Fatal(err)
		}
	}
	postAddrs := append([]string{restartedAddr}, addrs[1:]...)
	for i := 0; i < 8; i++ {
		id := uint64(postBase + i)
		tr := waitComplete(t, postAddrs, id, 20*time.Second)
		if len(tr.Stages) != obs.NumStages {
			t.Fatalf("post-restart tx %d: complete waterfall has %d stages, want %d", id, len(tr.Stages), obs.NumStages)
		}
	}
}
