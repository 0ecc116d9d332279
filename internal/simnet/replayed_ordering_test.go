package simnet

import (
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
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
	return cfg
}

// hhConfig is the reputation scheduler's configuration with the given epoch
// length.
func hhConfig(epochCommits int) *core.Config {
	cfg := core.DefaultConfig()
	cfg.EpochCommits = epochCommits
	return &cfg
}

// recordInsertions taps the certificates validator id inserts, in order,
// from genesis on — an order a log compacted at checkpoints does not keep.
// Call before Start; read the trace after the run.
func (c *Cluster) recordInsertions(id types.ValidatorID) *[]*engine.Certificate {
	trace := &[]*engine.Certificate{}
	c.setTap(func(v types.ValidatorID, cert *engine.Certificate, _ *engine.Header) {
		if v == id && cert != nil {
			*trace = append(*trace, cert)
		}
	})
	return trace
}

// setTap hands fn every record each validator's observer receives (exactly
// one of cert and h is set), after its log has it, in every incarnation. It
// rebuilds the validators around the tap: call before Start.
func (c *Cluster) setTap(fn func(id types.ValidatorID, cert *engine.Certificate, h *engine.Header)) {
	c.tap = func(id types.ValidatorID, next engine.Observer) engine.Observer {
		return tapObserver{next: next, id: id, fn: fn}
	}
	for i := range c.validators {
		if err := c.buildValidator(types.ValidatorID(i)); err != nil {
			panic(err)
		}
	}
}

// tapObserver passes each record to the validator's own observer, if any,
// then to fn.
type tapObserver struct {
	next engine.Observer
	id   types.ValidatorID
	fn   func(id types.ValidatorID, cert *engine.Certificate, h *engine.Header)
}

func (o tapObserver) Inserted(cert *engine.Certificate) {
	if o.next != nil {
		o.next.Inserted(cert)
	}
	o.fn(o.id, cert, nil)
}

func (o tapObserver) Proposed(h *engine.Header) bool {
	durable := o.next == nil || o.next.Proposed(h)
	o.fn(o.id, nil, h)
	return durable
}

func (tapObserver) Certified(*engine.Certificate)               {}
func (tapObserver) CheckpointCertified(*checkpoint.Certificate) {}

// replayCheckpointInterval is the checkpoint interval of replayEngine's
// executor; a live cluster compared with a replay must use the same.
const replayCheckpointInterval = 5

// replayEngine feeds a recorded certificate-insertion trace into a fresh
// validator 0 with the given scheduler (seed 1), its executor applying each
// commit as the sink receives it, and returns the commit stream plus the
// executor.
func replayEngine(t *testing.T, committee *types.Committee, hh *core.Config, trace []*engine.Certificate) ([]bullshark.CommittedSubDAG, *execution.Executor) {
	t.Helper()
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v *validator.Validator
	log := &commitLog{}
	v, err = validator.New(validator.Config{
		Committee:    committee,
		Keys:         kp,
		Engine:       fastSimEngineConfig(),
		HammerHead:   hh,
		ScheduleSeed: 1,
		Execution:    execution.Config{CheckpointInterval: replayCheckpointInterval},
		Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
			v.Executor.ApplyCommit(sub)
			log.subs = append(log.subs, sub)
		}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cert := range trace {
		msg := &engine.Message{Kind: engine.KindCertificate, Cert: cert}
		v.Engine.OnMessage(1, msg, 0)
	}
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

// TestReplayedOrderingMatchesLive is the replay determinism proof on a
// realistic trace: a simulated HammerHead committee under steady load
// (schedule switches every 3 commits, one validator slowed, one
// crash/recovery) runs for 20 virtual seconds while validator 0's
// certificate-insertion sequence is recorded. Replaying that sequence into a
// fresh engine must reproduce validator 0's live commit stream byte for
// byte, and its executor must reach live validator 0's state at the same
// commit sequence.
func TestReplayedOrderingMatchesLive(t *testing.T) {
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
		// The replay's executor checkpoints at the same interval.
		CheckpointInterval: replayCheckpointInterval,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, _ int64) {
			if node == 0 {
				live = append(live, sub)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recorded := cluster.recordInsertions(0) // replayed below
	cluster.SlowDown(2, 4, 5*time.Second, 10*time.Second)
	cluster.CrashAt(3, 8*time.Second)
	cluster.Recover(3, 14*time.Second)

	startSteadyLoad(cluster, committee.Size(), 18*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(20 * time.Second)

	trace := *recorded
	if len(live) < 10 || len(trace) < 40 {
		t.Fatalf("trace too small to be meaningful: %d commits, %d certs", len(live), len(trace))
	}
	replayed, replayedExec := replayEngine(t, committee, hhConfig(3), trace)
	assertSameCommitStream(t, "replay-vs-live", live, replayed)
	// The replay's executor applied the same commits: it must stand where
	// live validator 0's does, at the same sequence with the same state.
	liveExec := cluster.Executor(0)
	seq := replayedExec.AppliedSeq()
	liveRoot, ok := liveExec.RootAt(seq)
	if seq == 0 || liveExec.AppliedSeq() != seq || !ok ||
		replayedExec.StateRoot() != liveRoot ||
		replayedExec.StateDigest() != liveExec.StateDigest() {
		t.Fatalf("executor state diverged: replay (%d, %s), live v0 (%d, root at %d %s retained %v)",
			seq, replayedExec.StateRoot(), liveExec.AppliedSeq(), seq, liveRoot, ok)
	}
	txs := 0
	for _, sub := range replayed {
		txs += sub.TxCount()
	}
	if txs == 0 {
		t.Fatal("the replay applied no transactions; the state comparison is vacuous")
	}
}

// TestGhostParentChurnKeepsPendingBounded is the long-running churn test:
// one validator spams quorum-certified ghost-parent certificates (the
// pending-leak vector) while another corrupts its signatures
// (CorruptSignatures-style traffic the pre-verify stage must shed), and the
// committee keeps running. Before the pending-state GC fix, every honest
// engine accumulated one pending entry per forgery, forever; now they
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
	cfg.GCDepth = 8
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
		pending := eng.SyncBacklog()
		// The retention window is GCDepth rounds plus commit/GC slack; at
		// ~2 forgeries per round that is well under a quarter of the total
		// forged volume. Without the GC fix all ~forged entries survive.
		bound := forged / 4
		if pending > bound {
			t.Fatalf("v%d pending state unbounded: %d after %d forgeries, want <= %d",
				id, pending, forged, bound)
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
// TestReplayedOrderingMatchesLive above and the engine's sync tests.
