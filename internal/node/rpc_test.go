package node_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/node"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
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
	for i, addr := range loopbackPorts(t, n) {
		spec.addrs[types.ValidatorID(i)] = addr
	}
	return spec
}

// loopbackPorts picks n free loopback ports below the kernel's ephemeral
// range. A validator's port is learned here and bound at boot, perhaps twice
// (a restart): a port from the ephemeral range could meanwhile be handed to
// any ":0" bind on the host — another test package's client socket or
// listener — and the boot would fail with EADDRINUSE. No ":0" bind takes a
// port below the range.
func loopbackPorts(t *testing.T, n int) []string {
	t.Helper()
	low := 32768 // Linux's default start of the range; BSDs start higher
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if _, err := fmt.Sscan(string(b), &low); err != nil || low < 2048 {
			t.Skipf("ephemeral port range starts at %d: no room below it", low)
		}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	seen := map[int]bool{}
	var addrs []string
	for attempt := 0; len(addrs) < n; attempt++ {
		if attempt > 1000 {
			t.Fatalf("found %d free ports below %d in %d attempts", len(addrs), low, attempt)
		}
		port := low/2 + rng.Intn(low/2)
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := net.Listen("tcp", addr)
		if err != nil || seen[port] {
			continue
		}
		_ = ln.Close()
		seen[port] = true
		addrs = append(addrs, addr)
	}
	return addrs
}

// boot builds and starts validator id over TCP on its port, retrying the
// listen bind (a restart rebinds a just-freed port). cfg carries what a test
// chooses — log, gateway, commit handler, checkpoint certification; boot
// fills in the committee and keys, execution, two mempool lanes and a
// 20 ms floor.
func (s *tcpNodeSpec) boot(t *testing.T, id types.ValidatorID, cfg node.Config) *node.Node {
	t.Helper()
	peers := map[types.ValidatorID]string{}
	for pid, addr := range s.addrs {
		if pid != id {
			peers[pid] = addr
		}
	}
	cfg.Committee, cfg.Self, cfg.Keys, cfg.PublicKeys = s.committee, id, s.keys[id], s.pubs
	cfg.Engine = engine.DefaultConfig()
	cfg.Engine.MinRoundDelay = 20 * time.Millisecond
	cfg.Engine.LeaderTimeout = 300 * time.Millisecond
	cfg.Engine.VerifySignatures = true
	cfg.ScheduleSeed = 7
	cfg.MempoolLanes = 2
	nd, err := node.New(cfg)
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

func submitKV(t *testing.T, base string, client, key, value string) (*rpcapi.SubmitResponse, int) {
	t.Helper()
	body, _ := json.Marshal(rpcapi.SubmitRequest{Client: client, Txs: []rpcapi.SubmitTx{
		{Payload: execution.PutOp([]byte(key), []byte(value))},
	}})
	resp, err := http.Post(base+"/v1/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	var out rpcapi.SubmitResponse
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
	n0 := spec.boot(t, 0, node.Config{WALPath: filepath.Join(dir, "v0.wal"), RPCAddr: "127.0.0.1:0",
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			if !replayed {
				commits0.Add(1)
			}
		}})
	defer n0.Close()
	n1 := spec.boot(t, 1, node.Config{WALPath: filepath.Join(dir, "v1.wal")})

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
	n1 = spec.boot(t, 1, node.Config{WALPath: filepath.Join(dir, "v1.wal")})
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
	var st rpcapi.StatusResponse
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
