package node_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/execution"
	"hammerhead/internal/metrics"
	"hammerhead/internal/node"
	"hammerhead/internal/storage"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// buildExecNode is buildNode with the execution subsystem enabled.
func buildExecNode(t *testing.T, tc *testCluster, id types.ValidatorID, walPath string, reg *metrics.Registry) *node.Node {
	return buildExecNodeHH(t, tc, id, nil, walPath, reg)
}

// buildExecNodeHH additionally selects the scheduler (nil = round-robin);
// opts adjust the configuration last.
func buildExecNodeHH(t *testing.T, tc *testCluster, id types.ValidatorID, hh *core.Config, walPath string, reg *metrics.Registry, opts ...func(*node.Config)) *node.Node {
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
	cfg := node.Config{
		Committee:          tc.committee,
		Self:               id,
		Keys:               kp,
		PublicKeys:         pubs,
		Engine:             fastNodeEngineConfig(),
		HammerHead:         hh,
		ScheduleSeed:       7,
		WALPath:            walPath,
		CheckpointInterval: 2,
		Metrics:            reg,
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			if !replayed {
				tc.commits[id] = append(tc.commits[id], sub.Anchor.Digest())
			}
			tc.txSeen[id] += sub.TxCount()
		},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	nd, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.join(t, id, nd)
	return nd
}

// TestNodesExecuteAndConverge runs a 4-node cluster with the
// execution subsystem on: every node applies the commit stream on its
// executor goroutine, checkpoints periodically, and all nodes converge to
// the same chained state root at a common commit sequence.
func TestNodesExecuteAndConverge(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	tc := newExecCluster(t, committee)
	reg := metrics.NewRegistry()
	for i := 0; i < 4; i++ {
		var r *metrics.Registry
		if i == 0 {
			r = reg
		}
		tc.nodes = append(tc.nodes, buildExecNode(t, tc, types.ValidatorID(i), "", r))
	}
	tc.start(t)
	for i := 0; i < 60; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%17))
		if err := tc.nodes[i%4].Submit(types.Transaction{
			ID:      uint64(i + 1),
			Payload: execution.PutOp(key, []byte(fmt.Sprintf("v%d", i))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tc.waitCommits(t, 5, 20*time.Second)
	for _, nd := range tc.nodes {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}

	minSeq := ^uint64(0)
	for _, nd := range tc.nodes {
		if seq := nd.Executor().AppliedSeq(); seq < minSeq {
			minSeq = seq
		}
	}
	if minSeq == 0 {
		t.Fatal("some executor applied nothing")
	}
	ref, ok := tc.nodes[0].Executor().RootAt(minSeq)
	if !ok {
		t.Fatalf("v0 lost root at seq %d", minSeq)
	}
	for i, nd := range tc.nodes[1:] {
		root, ok := nd.Executor().RootAt(minSeq)
		if !ok || root != ref {
			t.Fatalf("v%d root at seq %d = %s (ok=%v), want %s", i+1, minSeq, root, ok, ref)
		}
	}
	if tc.nodes[0].Executor().Checkpoints() == 0 {
		t.Fatal("no checkpoints were cut")
	}
	if reg.Gauge("hammerhead_executor_applied_round").Value() == 0 {
		t.Fatal("hammerhead_executor_applied_round gauge never set")
	}
}

func newExecCluster(t *testing.T, committee *types.Committee) *testCluster {
	t.Helper()
	return &testCluster{
		committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
		commits:   make(map[types.ValidatorID][]types.Digest),
		txSeen:    make(map[types.ValidatorID]int),
	}
}

// TestNodeRestartWithSnapshotUnderHammerHead: restarting a node
// that runs the HammerHead scheduler engine-fast-forwards from its local
// snapshot — the checkpoint carries core.ManagerState, restored before the
// jump — then replays the retained WAL suffix on top. Executors must resume
// at least at their checkpoints and consensus must produce fresh commits.
// (Historic regressions pinned here: Start once crashed on a nil
// fast-forwarder, and before scheduler state rode in checkpoints the
// fast-forward was skipped entirely.)
func TestNodeRestartWithSnapshotUnderHammerHead(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	hh := core.DefaultConfig()
	hh.EpochCommits = 3
	buildAll := func() *testCluster {
		tc := newExecCluster(t, committee)
		for i := 0; i < 4; i++ {
			tc.nodes = append(tc.nodes, buildExecNodeHH(t, tc, types.ValidatorID(i), &hh,
				filepath.Join(dir, fmt.Sprintf("v%d.wal", i)), nil))
		}
		return tc
	}

	tc := buildAll()
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		_ = tc.nodes[i%4].Submit(types.Transaction{
			ID: uint64(i + 1), Payload: execution.PutOp([]byte("k"), []byte{byte(i)})})
	}
	tc.waitCommits(t, 4, 20*time.Second)
	preSeq := make([]uint64, 4)
	for i, nd := range tc.nodes {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
		preSeq[i] = nd.Executor().AppliedSeq() // Close cut a final checkpoint
	}

	// Restart the whole committee from their records: the engine
	// restores the checkpoint's scheduler state, fast-forwards, and executors
	// resume at least at their checkpoints.
	tc2 := buildAll()
	tc2.start(t)
	for i, nd := range tc2.nodes {
		if got := nd.Executor().AppliedSeq(); got < preSeq[i] {
			t.Fatalf("v%d executor resumed at seq %d, want >= %d", i, got, preSeq[i])
		}
	}
	// And consensus resumes: fresh (non-replayed) commits appear everywhere.
	tc2.waitCommits(t, 2, 20*time.Second)
	for _, nd := range tc2.nodes {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Post-recovery schedule agreement: every restarted scheduler resolves
	// the identical leader sequence (engines are quiescent after Close).
	assertNodeSchedulesAgree(t, tc2.nodes)
}

// assertNodeSchedulesAgree compares the nodes' leader schedules over the
// anchor-round window every scheduler retains. Engines must be closed or
// otherwise quiescent.
func assertNodeSchedulesAgree(t *testing.T, nodes []*node.Node) {
	t.Helper()
	from, to := types.Round(2), types.Round(1)<<62
	for _, nd := range nodes {
		m, ok := nd.Engine().Scheduler().(*core.Manager)
		if !ok {
			t.Fatal("expected a core.Manager scheduler")
		}
		if first := m.History().Schedules()[0].InitialRound(); first > from {
			from = first
		}
		if last := nd.Engine().Committer().LastOrderedRound(); last < to {
			to = last
		}
	}
	if !from.IsAnchorRound() {
		from++
	}
	if from >= to {
		t.Fatalf("no overlapping schedule window: from %d, to %d", from, to)
	}
	ref := nodes[0].Engine().Scheduler()
	for r := from; r <= to; r += 2 {
		want := ref.LeaderAt(r)
		for i, nd := range nodes[1:] {
			if got := nd.Engine().Scheduler().LeaderAt(r); got != want {
				t.Fatalf("schedules diverge at anchor round %d: v0 says %s, v%d says %s",
					r, want, i+1, got)
			}
		}
	}
}

// TestHammerHeadWALCompactionThenRestart is the reputation-scheduler variant
// of TestCheckpointDrivenWALCompactionAndRestart — and the proof that the
// compaction gate could be deleted: with scheduler state riding in
// checkpoints, a HammerHead node's WAL writer compacts past the checkpoint
// floor (previously forbidden: replay needed full history to rebuild the
// schedule), and a restart from the compacted log restores the checkpoint's
// schedule, replays the suffix, rejoins, and agrees with the live committee
// on both state roots and the leader sequence.
func TestHammerHeadWALCompactionThenRestart(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	hh := core.DefaultConfig()
	hh.EpochCommits = 3 // switch schedules often, so the restored state has teeth
	walPath := filepath.Join(dir, "v0.wal")
	tc := newExecCluster(t, committee)
	tc.nodes = append(tc.nodes, buildExecNodeHH(t, tc, 0, &hh, walPath, nil))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildExecNodeHH(t, tc, types.ValidatorID(i), &hh, "", nil))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	closedLive := false
	defer func() {
		if !closedLive {
			for _, nd := range tc.nodes[1:] {
				_ = nd.Close()
			}
		}
	}()
	for i := 0; i < 60; i++ {
		_ = tc.nodes[1].Submit(types.Transaction{
			ID:      uint64(i + 1),
			Payload: execution.PutOp([]byte(fmt.Sprintf("k%d", i%11)), []byte("v")),
		})
	}
	tc.waitCommits(t, 20, 60*time.Second)
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	preSeq := tc.nodes[0].Executor().AppliedSeq()
	if preSeq == 0 {
		t.Fatal("v0 executed nothing before the shutdown")
	}

	info, err := storage.Inspect(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs == 0 {
		t.Fatal("WAL is empty")
	}
	// The very assertion the old gate made impossible: a HammerHead node's
	// log compacted past round 1.
	if info.LowestRound <= 1 {
		t.Fatalf("HammerHead WAL was never compacted: lowest recorded round %d over %d certs",
			info.LowestRound, info.Certs)
	}

	restarted := buildExecNodeHH(t, tc, 0, &hh, walPath, nil)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Executor().AppliedSeq(); got < preSeq {
		t.Fatalf("restarted executor at seq %d, want >= pre-shutdown %d", got, preSeq)
	}
	tc.waitCommitsRise(t, []types.ValidatorID{0}, 2, 20*time.Second)

	// Quiesce everything, then check root and schedule agreement between the
	// restarted node and the live committee.
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range tc.nodes[1:] {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	closedLive = true
	minSeq := restarted.Executor().AppliedSeq()
	for _, nd := range tc.nodes[1:] {
		if seq := nd.Executor().AppliedSeq(); seq < minSeq {
			minSeq = seq
		}
	}
	ref, ok := restarted.Executor().RootAt(minSeq)
	if !ok {
		t.Fatalf("restarted node lost root at seq %d", minSeq)
	}
	for i, nd := range tc.nodes[1:] {
		if root, ok := nd.Executor().RootAt(minSeq); !ok || root != ref {
			t.Fatalf("v%d root at seq %d = %s (ok=%v), want %s", i+1, minSeq, root, ok, ref)
		}
	}
	assertNodeSchedulesAgree(t, append([]*node.Node{restarted}, tc.nodes[1:]...))
}

// TestNodeRestartFromLocalSnapshot: a node whose WAL is lost entirely (disk
// swap, beyond-horizon gap) must resume its executor state from the locally
// persisted checkpoint at startup and rejoin consensus through its peers.
func TestNodeRestartFromLocalSnapshot(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "v0.wal")
	tc := newExecCluster(t, committee)
	tc.nodes = append(tc.nodes, buildExecNode(t, tc, 0, walPath, nil))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildExecNode(t, tc, types.ValidatorID(i), "", nil))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, nd := range tc.nodes[1:] {
			_ = nd.Close()
		}
	}()
	for i := 0; i < 40; i++ {
		_ = tc.nodes[1].Submit(types.Transaction{
			ID:      uint64(i + 1),
			Payload: execution.PutOp([]byte(fmt.Sprintf("k%d", i%7)), []byte("v")),
		})
	}
	tc.waitCommits(t, 4, 20*time.Second)
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	preSeq := tc.nodes[0].Executor().AppliedSeq()
	preRoot, _ := tc.nodes[0].Executor().RootAt(preSeq)
	if preSeq == 0 {
		t.Fatal("v0 executed nothing before the crash")
	}

	// Lose the WAL: only the snapshot can restore the executor now.
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	restarted := buildExecNode(t, tc, 0, walPath, nil)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()

	// Immediately after Start — before peers could deliver anything close to
	// the full history — the executor must sit at the last checkpoint
	// (Close cuts a final one, so that is the pre-crash state).
	gotSeq := restarted.Executor().AppliedSeq()
	if gotSeq < preSeq {
		t.Fatalf("restarted executor at seq %d, want >= pre-crash checkpoint %d (WAL was deleted)", gotSeq, preSeq)
	}
	if gotSeq == preSeq {
		if root := restarted.Executor().StateRoot(); root != preRoot {
			t.Fatalf("restored root %s != pre-crash root %s", root, preRoot)
		}
	}

	// And it rejoins consensus: fresh commits resume via the peers.
	for i := 0; i < 20; i++ {
		_ = tc.nodes[1].Submit(types.Transaction{
			ID:      uint64(1000 + i),
			Payload: execution.PutOp([]byte("post"), []byte{byte(i)}),
		})
	}
	tc.waitCommitsRise(t, []types.ValidatorID{0}, 2, 20*time.Second)
}

// TestCheckpointDrivenWALCompactionAndRestart: as the executor's checkpoint
// floor advances, the node's WAL writer compacts the log in place — replaying
// certificates a persisted checkpoint already covers is pure waste — and a
// restart from the compacted WAL (checkpoint restore first, then replay of
// the retained suffix, then rejoin) still converges to fresh commits.
func TestCheckpointDrivenWALCompactionAndRestart(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "v0.wal")
	tc := newExecCluster(t, committee)
	tc.nodes = append(tc.nodes, buildExecNode(t, tc, 0, walPath, nil))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildExecNode(t, tc, types.ValidatorID(i), "", nil))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, nd := range tc.nodes[1:] {
			_ = nd.Close()
		}
	}()
	for i := 0; i < 60; i++ {
		_ = tc.nodes[1].Submit(types.Transaction{
			ID:      uint64(i + 1),
			Payload: execution.PutOp([]byte(fmt.Sprintf("k%d", i%11)), []byte("v")),
		})
	}
	// Enough commits that the checkpoint floor (applied round minus the
	// boundary window) clears the log's head by a wide margin.
	tc.waitCommits(t, 20, 60*time.Second)
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	preSeq := tc.nodes[0].Executor().AppliedSeq()
	if preSeq == 0 {
		t.Fatal("v0 executed nothing before the shutdown")
	}

	info, err := storage.Inspect(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs == 0 {
		t.Fatal("WAL is empty")
	}
	// An uncompacted log starts at round 1; checkpoint-driven compaction must
	// have raised the replay floor well past it.
	if info.LowestRound <= 1 {
		t.Fatalf("WAL was never compacted: lowest recorded round %d over %d certs", info.LowestRound, info.Certs)
	}

	// Restart from the compacted log: the local checkpoint covers the pruned
	// prefix, the retained suffix replays on top, and the node rejoins.
	restarted := buildExecNode(t, tc, 0, walPath, nil)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := restarted.Executor().AppliedSeq(); got < preSeq {
		t.Fatalf("restarted executor at seq %d, want >= pre-shutdown %d", got, preSeq)
	}
	tc.waitCommitsRise(t, []types.ValidatorID{0}, 2, 20*time.Second)
}

// TestRestartResumesFromItsOwnCompactedRecord: a validator run with a WAL and
// execution, and nothing else, keeps the checkpoints its log is compacted
// against beside the log. Restarted from a log compacted at two or more
// checkpoints, its executor resumes at or above its pre-shutdown seq from
// that record alone, before any peer could serve it a snapshot, and it goes
// on committing without installing one.
func TestRestartResumesFromItsOwnCompactedRecord(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "v0.wal")
	reg := metrics.NewRegistry()
	tc := newExecCluster(t, committee)
	tc.nodes = append(tc.nodes, buildExecNode(t, tc, 0, walPath, reg))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildExecNode(t, tc, types.ValidatorID(i), "", nil))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, nd := range tc.nodes[1:] {
			_ = nd.Close()
		}
	}()
	for i := 0; i < 40; i++ {
		_ = tc.nodes[1].Submit(types.Transaction{
			ID:      uint64(i + 1),
			Payload: execution.PutOp([]byte(fmt.Sprintf("k%d", i%7)), []byte("v")),
		})
	}
	tc.waitCommits(t, 20, 60*time.Second)
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	preSeq := tc.nodes[0].Executor().AppliedSeq()
	info, err := storage.Inspect(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hammerhead_wal_compactions_total").Value(); got < 2 || info.LowestRound <= 1 {
		t.Fatalf("the log was compacted %d times before the shutdown and starts at round %d, want at least 2 and past round 1",
			got, info.LowestRound)
	}

	restarted := buildExecNode(t, tc, 0, walPath, nil)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := restarted.Executor().AppliedSeq(); got < preSeq {
		t.Fatalf("restarted executor at seq %d, want >= pre-shutdown %d from its own record", got, preSeq)
	}
	tc.waitCommitsRise(t, []types.ValidatorID{0}, 2, 20*time.Second)
	if got := restarted.Counters().SnapshotInstalls; got != 0 {
		t.Fatalf("the restarted validator installed %d snapshots from peers, want none", got)
	}
}

// TestCleanRestartKeepsTheCheckpointGrid: a certifying validator shut down
// cleanly at a commit seq that is no multiple of the checkpoint interval
// writes its final checkpoint there and restarts from it. It must go on
// cutting where the committee cuts, so that its shares join quorums and the
// committee's certificates attach to checkpoints it holds: its
// LatestCertificate advances with the committee's instead of staying where
// the restart left it.
func TestCleanRestartKeepsTheCheckpointGrid(t *testing.T) {
	const interval = 8
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "v0.wal")
	certify := func(c *node.Config) {
		c.CheckpointInterval = interval
		c.CheckpointCerts = true
	}
	tc := newExecCluster(t, committee)
	tc.nodes = append(tc.nodes, buildExecNodeHH(t, tc, 0, nil, walPath, nil, certify))
	for i := 1; i < 4; i++ {
		tc.nodes = append(tc.nodes, buildExecNodeHH(t, tc, types.ValidatorID(i), nil, "", nil, certify))
	}
	for _, nd := range tc.nodes {
		if err := tc.startNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, nd := range tc.nodes[1:] {
			_ = nd.Close()
		}
	}()

	// Shut v0 down a few commits past a multiple of the interval: its final
	// checkpoint is then off the multiples a count from genesis cuts at.
	v0 := tc.nodes[0].Executor()
	for seq := v0.AppliedSeq(); seq < 2*interval || seq%interval < 2 || seq%interval > 4; seq = v0.AppliedSeq() {
		tc.waitCommitsRise(t, []types.ValidatorID{0}, 1, 20*time.Second)
	}
	if err := tc.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	closedAt := v0.AppliedSeq()

	restarted := buildExecNodeHH(t, tc, 0, nil, walPath, nil, certify)
	if err := tc.startNode(restarted); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	var base uint64
	for _, nd := range tc.nodes[1:] {
		if cert, ok := nd.Executor().LatestCertificate(); ok {
			base = max(base, cert.Meta.CommitSeq)
		}
	}
	for rise := 0; ; rise++ {
		if cert, ok := restarted.Executor().LatestCertificate(); ok && cert.Meta.CommitSeq > base {
			return
		}
		if rise == 6*interval {
			cert, _ := restarted.Executor().LatestCertificate()
			t.Fatalf("closed at seq %d and restarted; %d commits later it holds certificate %v, the committee held seq %d at the restart",
				closedAt, rise, cert, base)
		}
		tc.waitCommitsRise(t, []types.ValidatorID{0}, 1, 20*time.Second)
	}
}
