package node_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/metrics"
	"hammerhead/internal/node"
	"hammerhead/internal/storage"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// testCluster boots n in-process nodes over a channel network.
type testCluster struct {
	committee *types.Committee
	network   *transport.ChannelNetwork
	nodes     []*node.Node
	// trans holds each built node's endpoint, handed over at Start.
	trans map[*node.Node]transport.Transport

	mu      sync.Mutex
	commits map[types.ValidatorID][]types.Digest
	txSeen  map[types.ValidatorID]int
	// states holds the encoded scheduler state each fresh commit carried
	// (built on first use).
	states map[types.ValidatorID][][]byte
}

func fastNodeEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.MinRoundDelay = 20 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	cfg.VerifySignatures = true
	return cfg
}

func buildNode(t *testing.T, tc *testCluster, id types.ValidatorID, hh *core.Config, walPath string, reg *metrics.Registry) *node.Node {
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

	nd, err := node.New(node.Config{
		Committee:    tc.committee,
		Self:         id,
		Keys:         kp,
		PublicKeys:   pubs,
		Engine:       fastNodeEngineConfig(),
		HammerHead:   hh,
		ScheduleSeed: 7,
		WALPath:      walPath,
		Metrics:      reg,
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			if !replayed {
				tc.commits[id] = append(tc.commits[id], sub.Anchor.Digest())
				data, err := sub.SchedulerState.Encode()
				if err != nil {
					t.Error(err)
				}
				if tc.states == nil {
					tc.states = make(map[types.ValidatorID][][]byte)
				}
				tc.states[id] = append(tc.states[id], data)
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

// join connects a built node to the network; startNode hands it the
// endpoint.
func (tc *testCluster) join(t *testing.T, id types.ValidatorID, nd *node.Node) {
	t.Helper()
	tr, err := tc.network.Join(id, nd.HandleMessage)
	if err != nil {
		t.Fatal(err)
	}
	if tc.trans == nil {
		tc.trans = make(map[*node.Node]transport.Transport)
	}
	tc.trans[nd] = tr
}

func (tc *testCluster) startNode(nd *node.Node) error { return nd.Start(tc.trans[nd]) }

func newTestCluster(t *testing.T, n int, hh *core.Config) *testCluster {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	for i := 0; i < n; i++ {
		tc.nodes = append(tc.nodes, buildNode(t, tc, types.ValidatorID(i), hh, "", nil))
	}
	return tc
}

func (tc *testCluster) start(t *testing.T) {
	t.Helper()
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			_ = nd.Close()
		}
	})
}

// waitCommits blocks until every node committed at least min sub-DAGs.
func (tc *testCluster) waitCommits(t *testing.T, min int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		tc.mu.Lock()
		ready := 0
		for _, nd := range tc.nodes {
			_ = nd
		}
		for i := 0; i < tc.committee.Size(); i++ {
			if len(tc.commits[types.ValidatorID(i)]) >= min {
				ready++
			}
		}
		tc.mu.Unlock()
		if ready == tc.committee.Size() {
			return
		}
		if time.Now().After(deadline) {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			t.Fatalf("timed out: commits per node = %v", tc.commits)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitCommitsRise waits until each of ids has delivered rise more commits
// than it had on entry.
func (tc *testCluster) waitCommitsRise(t *testing.T, ids []types.ValidatorID, rise int, timeout time.Duration) {
	t.Helper()
	tc.mu.Lock()
	want := make(map[types.ValidatorID]int, len(ids))
	for _, id := range ids {
		want[id] = len(tc.commits[id]) + rise
	}
	tc.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		tc.mu.Lock()
		ready := 0
		for _, id := range ids {
			if len(tc.commits[id]) >= want[id] {
				ready++
			}
		}
		tc.mu.Unlock()
		if ready == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			t.Fatalf("timed out waiting for %d more commits on %v: commits per node = %v", rise, ids, tc.commits)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertCountersLive reads every node's status-line counters while the
// engines run (under -race this is the check that the line is served from
// mirrors, not from state the engine goroutine owns).
func (tc *testCluster) assertCountersLive(t *testing.T) {
	t.Helper()
	for i, nd := range tc.nodes {
		c := nd.Counters()
		if c.Round == 0 || c.Committer.DirectCommits+c.Committer.IndirectCommits == 0 || c.Committer.OrderedVertices == 0 {
			t.Fatalf("node v%d counters after commits: %+v", i, c)
		}
	}
}

func TestNodesCommitTransactions(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	tc.start(t)
	for i := 0; i < 50; i++ {
		if err := tc.nodes[i%4].Submit(types.Transaction{ID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	tc.waitCommits(t, 3, 15*time.Second)
	tc.assertCountersLive(t)
	tc.assertPrefixConsistent(t)
}

// assertPrefixConsistent checks that every node's commit stream is a prefix
// of v0's or extends it, and that transactions flowed through every node.
func (tc *testCluster) assertPrefixConsistent(t *testing.T) {
	t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ref := tc.commits[0]
	for i := 1; i < tc.committee.Size(); i++ {
		other := tc.commits[types.ValidatorID(i)]
		for j := 0; j < min(len(ref), len(other)); j++ {
			if ref[j] != other[j] {
				t.Fatalf("node v%d commit %d diverges from v0", i, j)
			}
		}
	}
	for i := 0; i < tc.committee.Size(); i++ {
		if tc.txSeen[types.ValidatorID(i)] == 0 {
			t.Fatalf("node v%d committed no transactions", i)
		}
	}
}

// TestNodesCommitWithPipelinedEngine runs the transaction flow with the
// HammerHead scheduler switching schedules every few commits: certificate
// ingest, Bullshark ordering and the execution sink all run inline on each
// node's engine goroutine. The name predates the removal of the separate
// order stage; prefix consistency across nodes still re-checks the
// determinism contract end-to-end on the real runtime.
func TestNodesCommitWithPipelinedEngine(t *testing.T) {
	hh := core.DefaultConfig()
	hh.EpochCommits = 3
	tc := newTestCluster(t, 4, &hh)
	tc.start(t)
	for i := 0; i < 50; i++ {
		if err := tc.nodes[i%4].Submit(types.Transaction{ID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	tc.waitCommits(t, 6, 20*time.Second)
	tc.assertCountersLive(t)
	tc.assertPrefixConsistent(t)
}

func TestNodesWithHammerHeadScheduler(t *testing.T) {
	hh := core.DefaultConfig()
	hh.EpochCommits = 3
	tc := newTestCluster(t, 4, &hh)
	tc.start(t)
	for i := 0; i < 20; i++ {
		_ = tc.nodes[0].Submit(types.Transaction{ID: uint64(i + 1)})
	}
	tc.waitCommits(t, 8, 20*time.Second)

	// The schedule must have switched on every node identically: every
	// commit of the shared prefix carries the same scheduler state, byte for
	// byte. The schedulers belong to the engine goroutines: stop them first.
	for _, nd := range tc.nodes {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for i, nd := range tc.nodes {
		m, ok := nd.Engine().Scheduler().(*core.Manager)
		if !ok {
			t.Fatal("scheduler is not a HammerHead manager")
		}
		if m.SwitchCount() == 0 {
			t.Fatalf("node v%d never switched schedules", i)
		}
		ref, other := tc.states[0], tc.states[types.ValidatorID(i)]
		for j := 0; j < len(ref) && j < len(other); j++ {
			if !bytes.Equal(ref[j], other[j]) {
				t.Fatalf("commit %d carries a different scheduler state on node v%d", j, i)
			}
		}
	}
}

func TestNodeMetricsExposed(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	reg := metrics.NewRegistry()
	tc.nodes = append(tc.nodes, buildNode(t, tc, 0, nil, "", reg))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildNode(t, tc, types.ValidatorID(i), nil, "", nil))
	}
	tc.start(t)
	_ = tc.nodes[0].Submit(types.Transaction{ID: 1})
	tc.waitCommits(t, 2, 15*time.Second)
	if got := reg.Counter("hammerhead_commits_total").Value(); got == 0 {
		t.Fatal("commit counter never incremented")
	}
	if got := reg.Gauge("hammerhead_round").Value(); got == 0 {
		t.Fatal("round gauge never set")
	}
	// At least the genesis round and one certified round past it.
	if got := reg.Gauge("hammerhead_dag_vertices").Value(); got < 4+3 {
		t.Fatalf("DAG vertex gauge reads %d", got)
	}
	page := reg.Render()
	for _, name := range []string{
		"hammerhead_dag_floor_round",
		"hammerhead_headers_abandoned_total",
		"hammerhead_tx_carried_total",
		"hammerhead_headers_whole_early_total",
		"hammerhead_headers_full_early_total",
		"hammerhead_own_vertices_pruned_unordered_total",
	} {
		if !strings.Contains(page, name+" ") {
			t.Fatalf("/metrics lacks %s:\n%s", name, page)
		}
	}
}

func TestNodeCrashRecoveryFromWAL(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	walPath := filepath.Join(dir, "v0.wal")
	tc.nodes = append(tc.nodes, buildNode(t, tc, 0, nil, walPath, nil))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildNode(t, tc, types.ValidatorID(i), nil, "", nil))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		_ = tc.nodes[1].Submit(types.Transaction{ID: uint64(i + 1)})
	}
	tc.waitCommits(t, 3, 15*time.Second)

	// Crash v0.
	tc.mu.Lock()
	preCrash := uint64(len(tc.commits[0]))
	tc.mu.Unlock()
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	preSeq := tc.nodes[0].Executor().AppliedSeq()
	// The survivors keep committing while v0 is down.
	tc.waitCommitsRise(t, []types.ValidatorID{1, 2, 3}, 3, 15*time.Second)

	// Restart v0 from its record under a fresh transport endpoint.
	pairs, pubs, err := crypto.CommitteeKeys(crypto.Insecure{}, [32]byte{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := node.New(node.Config{
		Committee:    committee,
		Self:         0,
		Keys:         pairs[0],
		PublicKeys:   pubs,
		Engine:       fastNodeEngineConfig(),
		ScheduleSeed: 7,
		WALPath:      walPath,
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			if !replayed {
				tc.mu.Lock()
				tc.commits[0] = append(tc.commits[0], sub.Anchor.Digest())
				tc.mu.Unlock()
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

	// The pre-crash progress survives: the restart resumes from the
	// checkpoint Close wrote and replays the log above it.
	if got := restarted.Executor().AppliedSeq(); got < preCrash || got < preSeq {
		t.Fatalf("restarted at applied seq %d, want >= the %d commits made (seq %d applied) before the crash", got, preCrash, preSeq)
	}

	// The recovered node must rejoin consensus and commit new sub-DAGs.
	deadline := time.Now().Add(20 * time.Second)
	for {
		tc.mu.Lock()
		fresh := uint64(len(tc.commits[0])) - preCrash
		tc.mu.Unlock()
		if fresh >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered node never committed fresh sub-DAGs")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestNodeRecordsNothingBeforeStart hands a fresh node a peer's certificate
// before Start: the engine inserts it from the held queue before recovery
// runs, while the log is not open yet. The validator is not live then, so the
// certificate is not recorded — no write races recovery's replay and open —
// and the log the node leaves behind replays whole on a restart.
func TestNodeRecordsNothingBeforeStart(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	var seed [32]byte
	sign := func(id types.ValidatorID, d types.Digest) []byte {
		kp, err := crypto.NewKeyPair(crypto.Insecure{}, seed, uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		sig, err := kp.Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	h := engine.Header{Round: 1, Source: 1}
	h.Signature = sign(1, h.Digest())
	cert := &engine.Certificate{Header: h}
	for v := types.ValidatorID(1); v <= 3; v++ {
		cert.Votes = append(cert.Votes, engine.VoteSig{Voter: v, Signature: sign(v, h.Digest())})
	}

	walPath := filepath.Join(t.TempDir(), "v0", "wal")
	nd := buildNode(t, tc, 0, nil, walPath, nil)
	nd.HandleMessage(1, &engine.Message{Kind: engine.KindCertificate, Cert: cert})
	if err := tc.startNode(nd); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := storage.Inspect(walPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs != 0 || info.Proposals == 0 || info.ValidBytes != st.Size() {
		t.Fatalf("the log holds %+v in %d bytes, want only the node's own proposals, all replayable", info, st.Size())
	}

	restarted := buildNode(t, tc, 0, nil, walPath, nil)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeRefusesWALOfAnotherFormatGeneration: a log whose first record
// passes its CRC under a version tag this binary does not write must stop the
// node at start-up and stay on disk byte for byte — replaying "nothing" and
// truncating the file would silently discard the validator's history.
func TestNodeRefusesWALOfAnotherFormatGeneration(t *testing.T) {
	body := []byte{0x03, 0x01, 0xAA, 0xBB}
	foreign := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(foreign[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(foreign[4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	foreign = append(foreign, body...)
	walPath := filepath.Join(t.TempDir(), "v0.wal")
	if err := os.WriteFile(walPath, foreign, 0o644); err != nil {
		t.Fatal(err)
	}

	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	nd := buildNode(t, tc, 0, nil, walPath, nil)
	defer nd.Close()
	if err := tc.startNode(nd); err == nil || !strings.Contains(err.Error(), "version tag 0x03") {
		t.Fatalf("Start on a foreign-generation WAL: err = %v, want a refusal naming tag 0x03", err)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, foreign) {
		t.Fatalf("refused WAL was modified (%d -> %d bytes, err %v)", len(foreign), len(got), err)
	}
}

func TestNodePreVerifyDropsForgedMessages(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
	reg := metrics.NewRegistry()
	tc.nodes = append(tc.nodes, buildNode(t, tc, 0, nil, "", reg))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildNode(t, tc, types.ValidatorID(i), nil, "", nil))
	}
	tc.start(t)
	tc.waitCommits(t, 1, 15*time.Second)

	// Inject forged traffic straight into node 0's inbound hook: headers
	// and votes with garbage signatures, claiming to come from validator 1.
	for i := 0; i < 10; i++ {
		h := &engine.Header{Round: 1, Source: 1, Signature: crypto.Signature("forged!")}
		tc.nodes[0].HandleMessage(1, &engine.Message{Kind: engine.KindHeader, Header: h})
		v := &engine.Vote{Round: 1, Origin: 0, Voter: 1, Signature: crypto.Signature("forged!")}
		tc.nodes[0].HandleMessage(1, &engine.Message{Kind: engine.KindVote, Vote: v})
	}

	deadline := time.Now().Add(10 * time.Second)
	for tc.nodes[0].PreVerifyStats().Dropped < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("pre-verify dropped %d messages, want 20", tc.nodes[0].PreVerifyStats().Dropped)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reg.Counter("hammerhead_preverify_dropped_total").Value() < 20 {
		t.Fatal("dropped counter metric not updated")
	}
	// Liveness is unaffected: the cluster keeps committing past the attack.
	tc.mu.Lock()
	before := len(tc.commits[0])
	tc.mu.Unlock()
	tc.waitCommits(t, before+2, 15*time.Second)
}
