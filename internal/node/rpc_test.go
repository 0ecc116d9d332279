package node_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/node"
	"hammerhead/internal/rpc"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// tcpNodeSpec assembles one validator over real TCP for the gateway tests.
type tcpNodeSpec struct {
	committee *types.Committee
	pubs      []crypto.PublicKey
	keys      []crypto.KeyPair
	addrs     map[types.ValidatorID]string
}

func newTCPSpec(t *testing.T, n int) *tcpNodeSpec {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := &tcpNodeSpec{committee: committee, addrs: map[types.ValidatorID]string{}}
	var seed [32]byte
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(crypto.Insecure{}, seed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		spec.keys = append(spec.keys, kp)
		spec.pubs = append(spec.pubs, kp.Public)
	}
	// Learn ephemeral ports by binding and closing throwaway transports.
	for i := 0; i < n; i++ {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: types.ValidatorID(i), ListenAddr: "127.0.0.1:0",
			PeerAddrs: map[types.ValidatorID]string{},
			Handler:   func(types.ValidatorID, *engine.Message) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		spec.addrs[types.ValidatorID(i)] = tr.Addr()
		_ = tr.Close()
	}
	return spec
}

// bootTCPNode builds and starts one validator over TCP, retrying the listen
// bind (restart tests rebind a just-freed port).
func (s *tcpNodeSpec) bootTCPNode(t *testing.T, id types.ValidatorID, walPath, rpcAddr string, onCommit node.CommitHandler) *node.Node {
	t.Helper()
	peers := map[types.ValidatorID]string{}
	for pid, addr := range s.addrs {
		if pid != id {
			peers[pid] = addr
		}
	}
	cfg := engine.DefaultConfig()
	cfg.MinRoundDelay = 20 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	cfg.ResyncInterval = 200 * time.Millisecond
	cfg.VerifySignatures = true
	nd, err := node.New(node.Config{
		Committee:    s.committee,
		Self:         id,
		Keys:         s.keys[id],
		PublicKeys:   s.pubs,
		Engine:       cfg,
		ScheduleSeed: 7,
		WALPath:      walPath,
		Execution:    true,
		MempoolLanes: 2,
		RPCAddr:      rpcAddr,
		OnCommit:     onCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr *transport.TCPTransport
	for attempt := 0; ; attempt++ {
		tr, err = transport.NewTCP(transport.TCPConfig{
			Self: id, ListenAddr: s.addrs[id],
			PeerAddrs: peers,
			Handler:   nd.HandleMessage,
		})
		if err == nil {
			break
		}
		if attempt > 100 {
			_ = nd.Close()
			t.Fatalf("binding %s: %v", s.addrs[id], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := nd.Start(tr); err != nil {
		t.Fatal(err)
	}
	return nd
}

func submitKV(t *testing.T, base string, client, key, value string) (*rpc.SubmitResponse, int) {
	t.Helper()
	body, _ := json.Marshal(rpc.SubmitRequest{Client: client, Txs: []rpc.SubmitTx{
		{Payload: execution.PutOp([]byte(key), []byte(value))},
	}})
	resp, err := http.Post(base+"/v1/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	var out rpc.SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return &out, resp.StatusCode
}

// TestGatewayAcceptsWhileTCPPeerRestarts is the serving-layer availability
// test over real TCP: with one of two validators down (no quorum, no
// commits), the surviving node's gateway must keep ACCEPTING submissions —
// clients see backpressure semantics, not connection errors — and once the
// peer restarts from its WAL and rejoins, the traffic accepted during the
// outage commits and becomes readable.
func TestGatewayAcceptsWhileTCPPeerRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster test")
	}
	spec := newTCPSpec(t, 2)
	dir := t.TempDir()

	var commits0 atomic.Uint64
	n0 := spec.bootTCPNode(t, 0, filepath.Join(dir, "v0.wal"), "127.0.0.1:0",
		func(sub bullshark.CommittedSubDAG, replayed bool) {
			if !replayed {
				commits0.Add(1)
			}
		})
	defer n0.Close()
	n1 := spec.bootTCPNode(t, 1, filepath.Join(dir, "v1.wal"), "", nil)

	base := "http://" + n0.Gateway().Addr()

	// Healthy phase: submissions commit.
	if _, status := submitKV(t, base, "alice", "pre-outage", "1"); status != http.StatusOK {
		t.Fatalf("healthy submit status = %d", status)
	}
	waitFor(t, 15*time.Second, "first commits", func() bool { return commits0.Load() > 0 })

	// Kill the peer: quorum is gone, commits stop — but the gateway must keep
	// accepting.
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	acceptedDuringOutage := 0
	for i := 0; i < 20; i++ {
		out, status := submitKV(t, base, "alice", fmt.Sprintf("outage-%02d", i), "v")
		if status == http.StatusOK && out != nil && out.Accepted == 1 {
			acceptedDuringOutage++
		}
		time.Sleep(25 * time.Millisecond)
	}
	if acceptedDuringOutage != 20 {
		t.Fatalf("gateway accepted %d/20 submissions during the peer outage", acceptedDuringOutage)
	}

	// Restart the peer from its WAL on the same address: crash-rejoin brings
	// the committee back, and the outage-time submissions commit.
	n1 = spec.bootTCPNode(t, 1, filepath.Join(dir, "v1.wal"), "", nil)
	defer n1.Close()

	waitFor(t, 30*time.Second, "outage-time submissions to commit and be readable", func() bool {
		resp, err := http.Get(base + "/v1/kv/outage-19")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Status over the same gateway reflects the recovered committee.
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st rpc.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Round == 0 || st.AppliedSeq == 0 || len(st.Lanes) != 2 {
		t.Fatalf("status after recovery = %+v", st)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
