package simnet

import (
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
	"hammerhead/internal/validator"
)

// commitLog records sink deliveries in order.
type commitLog struct {
	subs []bullshark.CommittedSubDAG
}

func (l *commitLog) DeliverCommit(sub bullshark.CommittedSubDAG) { l.subs = append(l.subs, sub) }

func fastSimEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.VerifySignatures = false
	cfg.MinRoundDelay = 50 * time.Millisecond
	cfg.LeaderTimeout = 500 * time.Millisecond
	cfg.ResyncInterval = 200 * time.Millisecond
	return cfg
}

// hhConfig is the reputation scheduler's configuration with the given epoch
// length.
func hhConfig(epochCommits int) *core.Config {
	cfg := core.DefaultConfig()
	cfg.EpochCommits = epochCommits
	return &cfg
}

// recordedCerts returns the certificates validator id inserted, in order,
// from its recorded log (RecordWALs).
func (c *Cluster) recordedCerts(id types.ValidatorID) []*engine.Certificate {
	var certs []*engine.Certificate
	for _, rec := range c.walLogs[id] {
		if rec.cert != nil {
			certs = append(certs, rec.cert)
		}
	}
	return certs
}

// replayEngine feeds a recorded certificate-insertion trace into a fresh
// validator 0 with the given scheduler (seed 1) and pipeline depth, its
// executor hanging off the commit sink (applied inline for serial engines,
// from the order-stage goroutine for pipelined ones), and returns the commit
// stream plus the executor.
func replayEngine(t *testing.T, committee *types.Committee, hh *core.Config, trace []*engine.Certificate, depth int) ([]bullshark.CommittedSubDAG, *execution.Executor) {
	t.Helper()
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.PipelineDepth = depth
	var v *validator.Validator
	log := &commitLog{}
	v, err = validator.New(validator.Config{
		Committee:    committee,
		Keys:         kp,
		Engine:       cfg,
		HammerHead:   hh,
		ScheduleSeed: 1,
		Execution:    &execution.Config{CheckpointInterval: 5},
		Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
			v.Executor.ApplyCommit(sub)
			log.subs = append(log.subs, sub)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cert := range trace {
		msg := &engine.Message{Kind: engine.KindCertificate, Cert: cert}
		v.Engine.OnMessage(1, msg.Clone(), 0)
	}
	v.Engine.Flush()
	v.Engine.Close()
	return log.subs, v.Executor
}

func assertSameCommitStream(t *testing.T, label string, a, b []bullshark.CommittedSubDAG) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: commit counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Direct != b[i].Direct ||
			a[i].Anchor.Digest() != b[i].Anchor.Digest() ||
			len(a[i].Vertices) != len(b[i].Vertices) {
			t.Fatalf("%s: commit %d differs: (idx=%d r=%d src=%s |%d| direct=%v) vs (idx=%d r=%d src=%s |%d| direct=%v)",
				label, i,
				a[i].Index, a[i].Anchor.Round, a[i].Anchor.Source, len(a[i].Vertices), a[i].Direct,
				b[i].Index, b[i].Anchor.Round, b[i].Anchor.Source, len(b[i].Vertices), b[i].Direct)
		}
		for j := range a[i].Vertices {
			if a[i].Vertices[j].Digest() != b[i].Vertices[j].Digest() {
				t.Fatalf("%s: commit %d vertex %d differs", label, i, j)
			}
		}
	}
}

// TestPipelinedOrderingMatchesSerial is the tentpole's determinism proof on
// a realistic trace: a simulated HammerHead committee (schedule switches
// every 3 commits, one validator slowed, one crash/recovery) runs for 20
// virtual seconds while validator 0's certificate-insertion sequence is
// recorded. Replaying that sequence into a fresh serial engine and a fresh
// pipelined engine (real order-stage goroutine) must reproduce validator
// 0's live commit stream byte-for-byte in both cases.
func TestPipelinedOrderingMatchesSerial(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	var live []bullshark.CommittedSubDAG
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       fastSimEngineConfig(),
		Latency:      Uniform{Base: 30 * time.Millisecond, Jitter: 0.2},
		HammerHead:   hhConfig(3),
		ScheduleSeed: 1,
		Seed:         7,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, _ int64) {
			if node == 0 {
				live = append(live, sub)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.RecordWALs() // validator 0's insertion sequence, replayed below
	cluster.SlowDown(2, 4, 5*time.Second, 10*time.Second)
	cluster.CrashAt(3, 8*time.Second)
	cluster.Recover(3, 14*time.Second)

	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)

	trace := cluster.recordedCerts(0)
	if len(live) < 10 || len(trace) < 40 {
		t.Fatalf("trace too small to be meaningful: %d commits, %d certs", len(live), len(trace))
	}
	serial, serialExec := replayEngine(t, committee, hhConfig(3), trace, 0)
	pipelined, pipelinedExec := replayEngine(t, committee, hhConfig(3), trace, 8)
	assertSameCommitStream(t, "serial-vs-live", live, serial)
	assertSameCommitStream(t, "pipelined-vs-serial", serial, pipelined)
	// Executor determinism on the same trace: identical commit streams must
	// chain to identical (seq, state root) regardless of which goroutine
	// applied them.
	if serialExec.AppliedSeq() != pipelinedExec.AppliedSeq() ||
		serialExec.StateRoot() != pipelinedExec.StateRoot() ||
		serialExec.StateDigest() != pipelinedExec.StateDigest() {
		t.Fatalf("executor state diverged: serial (%d, %s) vs pipelined (%d, %s)",
			serialExec.AppliedSeq(), serialExec.StateRoot(),
			pipelinedExec.AppliedSeq(), pipelinedExec.StateRoot())
	}
	if serialExec.AppliedSeq() == 0 {
		t.Fatal("executors applied nothing; determinism check is vacuous")
	}
}

// TestGhostParentChurnKeepsPendingBounded is the long-running churn test:
// one validator spams quorum-certified ghost-parent certificates (the
// pending-leak vector) while another corrupts its signatures
// (CorruptSignatures-style traffic the pre-verify stage must shed), and the
// committee keeps running. Before the pending-state GC fix, every honest
// engine accumulated one pending entry per forgery, forever; now the maps
// stay bounded by the GC retention window while consensus keeps committing.
func TestGhostParentChurnKeepsPendingBounded(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.VerifySignatures = true // authenticated pipeline: Ed25519 + pre-verify
	cfg.MinRoundDelay = 50 * time.Millisecond
	cfg.LeaderTimeout = 400 * time.Millisecond
	cfg.ResyncInterval = 200 * time.Millisecond
	cfg.GCDepth = 8
	cfg.GCEvery = 4
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       cfg,
		Latency:      Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hhConfig(10),
		ScheduleSeed: 1,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const forgeEvery = 150 * time.Millisecond
	cluster.ForgeGhostCerts(3, 2*time.Second, forgeEvery)
	cluster.CorruptSignatures(2, 10*time.Second)

	cluster.Start()
	runFor := 30 * time.Second
	cluster.Sim.RunFor(runFor)

	forged := int((runFor - 2*time.Second) / forgeEvery)
	if forged < 150 {
		t.Fatalf("expected >= 150 forgeries, got %d; test lost its teeth", forged)
	}
	for _, id := range []types.ValidatorID{0, 1} {
		eng := cluster.Engine(id)
		pending, missing, requested := eng.SyncBacklog()
		// The retention window is GCDepth rounds plus commit/GC slack; at
		// ~2 forgeries per round that is well under a quarter of the total
		// forged volume. Without the GC fix all ~forged entries survive.
		bound := forged / 4
		if pending > bound || missing > bound || requested > bound {
			t.Fatalf("v%d pending state unbounded: (%d,%d,%d) after %d forgeries, want <= %d",
				id, pending, missing, requested, forged, bound)
		}
		if last := eng.Committer().LastOrderedRound(); last < 40 {
			t.Fatalf("v%d consensus stalled under churn: last ordered round %d", id, last)
		}
	}
	if cluster.PreVerifyDropped() == 0 {
		t.Fatal("corrupted-signature traffic must be shed by pre-verify")
	}
}

// Catch-up beyond the GC horizon is covered by TestSnapshotCatchUpConverges
// (snapshot_sync_test.go) at the DEFAULT GCDepth — the raised-GCDepthRounds
// workaround the pre-snapshot catch-up test needed is gone. Catch-up within
// the horizon (pure range sync) is exercised by the crash/recovery window of
// TestPipelinedOrderingMatchesSerial above and the engine's sync tests.
