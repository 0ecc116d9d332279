package simnet

import (
	"fmt"
	"testing"
	"time"

	"hammerhead/internal/core"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// assertSchedulesAgree compares two validators' leader sequences over the
// overlapping anchor-round window both schedulers retain — the paper's
// Schedule Agreement in executable form. A recovered validator whose restored
// schedule diverged from the live committee's fails here round by round.
func assertSchedulesAgree(t *testing.T, cluster *Cluster, a, b types.ValidatorID, to types.Round) {
	t.Helper()
	schedA := cluster.Engine(a).Scheduler()
	schedB := cluster.Engine(b).Scheduler()
	from := types.Round(2)
	for _, s := range []leader.Scheduler{schedA, schedB} {
		if m, ok := s.(*core.Manager); ok {
			// The schedule history resolves leaders back to its first retained
			// schedule (a restored node's history starts at the restore floor).
			if first := m.History().Schedules()[0].InitialRound(); first > from {
				from = first
			}
		}
	}
	if !from.IsAnchorRound() {
		from++
	}
	if from+10 > to {
		t.Fatalf("overlapping schedule window too narrow: from %d, to %d", from, to)
	}
	for r := from; r <= to; r += 2 {
		la, lb := schedA.LeaderAt(r), schedB.LeaderAt(r)
		if la != lb {
			t.Fatalf("schedules diverge at anchor round %d: v%d says %s, v%d says %s",
				r, a, la, b, lb)
		}
	}
}

// TestSnapshotCatchUpConverges is the acceptance test for snapshot
// state-sync: a validator partitioned far past the GC horizon — with the
// DEFAULT GCDepth, so its missing certificate history is genuinely pruned
// everywhere — rejoins via a chunked snapshot install and converges to the
// same chained state root as the live validators at a common commit
// sequence. This replaces the old catch-up test's raised-GCDepthRounds
// workaround (peers no longer need to retain the absentee's gap).
func TestSnapshotCatchUpConverges(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MinRoundDelay = 30 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	cfg.ResyncInterval = 150 * time.Millisecond
	cfg.SnapshotChunkBytes = 2048 // force the multi-chunk resume path
	if cfg.GCDepth != engine.DefaultConfig().GCDepth {
		t.Fatalf("test must run at the default GCDepth, got %d", cfg.GCDepth)
	}
	cluster, err := NewCluster(ClusterConfig{
		Committee:          committee,
		Engine:             cfg,
		Latency:            Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed:       1,
		Execution:          true,
		CheckpointInterval: 8,
		Seed:               5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.CrashAt(3, 1*time.Second)
	cluster.Recover(3, 15*time.Second)

	// Open-loop KV load on the live validators for most of the run, so the
	// ledger state is non-trivial and roots have teeth.
	var tick func()
	seq := uint64(0)
	tick = func() {
		if cluster.Sim.Now() >= (28 * time.Second).Nanoseconds() {
			return
		}
		seq++
		key := []byte(fmt.Sprintf("k%03d", seq%257))
		val := []byte(fmt.Sprintf("v%d", seq))
		_ = cluster.SubmitTx(types.ValidatorID(seq%3), types.Transaction{
			ID:      seq,
			Payload: execution.PutOp(key, val),
		})
		cluster.Sim.After(5*time.Millisecond, tick)
	}
	cluster.Sim.After(5*time.Millisecond, tick)

	cluster.Start()
	cluster.Sim.RunFor(35 * time.Second)

	obs := cluster.Engine(0).Committer().LastOrderedRound()
	rec := cluster.Engine(3).Committer().LastOrderedRound()
	if obs < 150 {
		t.Fatalf("committee made too little progress: observer at round %d", obs)
	}
	// The outage must genuinely exceed the GC horizon, or this test lost its
	// teeth (certificate sync alone would have recovered it).
	if floor := cluster.Engine(0).DAG().PrunedTo(); floor < 100 {
		t.Fatalf("live validators pruned only to %d; outage not beyond the horizon", floor)
	}
	st := cluster.Engine(3).Stats()
	if st.SnapshotInstalls < 1 {
		t.Fatalf("recovered validator never installed a snapshot: %+v", st)
	}
	if st.SnapshotRequests < 2 {
		t.Fatalf("snapshot fetch was not chunked: %d requests", st.SnapshotRequests)
	}
	if rec+40 < obs {
		t.Fatalf("recovered validator did not catch up: at round %d vs observer %d", rec, obs)
	}

	// Convergence: the recovered executor's chained root equals every live
	// validator's root at the same commit sequence — identical applied
	// commit streams, hence identical KV ledgers.
	recExec := cluster.Executor(3)
	recSeq, recRoot := recExec.AppliedSeq(), recExec.StateRoot()
	if recSeq == 0 {
		t.Fatal("recovered executor applied nothing")
	}
	for id := types.ValidatorID(0); id < 3; id++ {
		liveRoot, ok := cluster.Executor(id).RootAt(recSeq)
		if !ok {
			t.Fatalf("v%d no longer retains root at seq %d (live at %d)", id, recSeq, cluster.Executor(id).AppliedSeq())
		}
		if liveRoot != recRoot {
			t.Fatalf("state roots diverged at seq %d: v3=%s v%d=%s", recSeq, recRoot, id, liveRoot)
		}
	}
	if p, m, r := cluster.Engine(3).SyncBacklog(); p > 256 || m > 256 || r > 256 {
		t.Fatalf("catch-up left unbounded pending state: (%d,%d,%d)", p, m, r)
	}
}

// TestHammerHeadSnapshotCatchUpConverges is the reputation-scheduler twin of
// TestSnapshotCatchUpConverges, and the acceptance test for scheduler state
// riding in checkpoints: a HammerHead validator partitioned past the default
// GC horizon must recover via a chunked snapshot install — the snapshot
// carries core.ManagerState, the engine restores it before fast-forwarding —
// and converge to both the same chained state root AND the same leader
// schedule as the live committee. Before this, the engine refused to request
// snapshots under HammerHead and the validator stayed behind forever.
func TestHammerHeadSnapshotCatchUpConverges(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MinRoundDelay = 30 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	cfg.ResyncInterval = 150 * time.Millisecond
	cfg.SnapshotChunkBytes = 2048 // force the multi-chunk resume path
	if cfg.GCDepth != engine.DefaultConfig().GCDepth {
		t.Fatalf("test must run at the default GCDepth, got %d", cfg.GCDepth)
	}
	cluster, err := NewCluster(ClusterConfig{
		Committee:          committee,
		Engine:             cfg,
		Latency:            Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		HammerHead:         hhConfig(10),
		ScheduleSeed:       1,
		Execution:          true,
		CheckpointInterval: 8,
		Seed:               9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.CrashAt(3, 1*time.Second)
	cluster.Recover(3, 15*time.Second)

	var tick func()
	seq := uint64(0)
	tick = func() {
		if cluster.Sim.Now() >= (28 * time.Second).Nanoseconds() {
			return
		}
		seq++
		key := []byte(fmt.Sprintf("k%03d", seq%257))
		val := []byte(fmt.Sprintf("v%d", seq))
		_ = cluster.SubmitTx(types.ValidatorID(seq%3), types.Transaction{
			ID:      seq,
			Payload: execution.PutOp(key, val),
		})
		cluster.Sim.After(5*time.Millisecond, tick)
	}
	cluster.Sim.After(5*time.Millisecond, tick)

	cluster.Start()
	cluster.Sim.RunFor(35 * time.Second)

	obs := cluster.Engine(0).Committer().LastOrderedRound()
	rec := cluster.Engine(3).Committer().LastOrderedRound()
	if obs < 150 {
		t.Fatalf("committee made too little progress: observer at round %d", obs)
	}
	if floor := cluster.Engine(0).DAG().PrunedTo(); floor < 100 {
		t.Fatalf("live validators pruned only to %d; outage not beyond the horizon", floor)
	}
	st := cluster.Engine(3).Stats()
	if st.SnapshotInstalls < 1 {
		t.Fatalf("recovered HammerHead validator never installed a snapshot: %+v", st)
	}
	if st.SnapshotInstallFailures != 0 {
		t.Fatalf("snapshot installs failed (missing scheduler state?): %+v", st)
	}
	if rec+40 < obs {
		t.Fatalf("recovered validator did not catch up: at round %d vs observer %d", rec, obs)
	}

	// The committee must actually have switched schedules, or the restore had
	// nothing to prove.
	liveSched, ok := cluster.Engine(0).Scheduler().(*core.Manager)
	if !ok {
		t.Fatal("expected a core.Manager scheduler")
	}
	if liveSched.SwitchCount() == 0 {
		t.Fatal("committee never switched schedules; test lost its teeth")
	}

	// Root convergence: identical applied commit streams.
	recExec := cluster.Executor(3)
	recSeq, recRoot := recExec.AppliedSeq(), recExec.StateRoot()
	if recSeq == 0 {
		t.Fatal("recovered executor applied nothing")
	}
	for id := types.ValidatorID(0); id < 3; id++ {
		liveRoot, ok := cluster.Executor(id).RootAt(recSeq)
		if !ok {
			t.Fatalf("v%d no longer retains root at seq %d (live at %d)", id, recSeq, cluster.Executor(id).AppliedSeq())
		}
		if liveRoot != recRoot {
			t.Fatalf("state roots diverged at seq %d: v3=%s v%d=%s", recSeq, recRoot, id, liveRoot)
		}
	}
	// Schedule convergence: the restored reputation schedule is bit-equal to
	// the live committee's over the whole retained window.
	for id := types.ValidatorID(0); id < 3; id++ {
		assertSchedulesAgree(t, cluster, 3, id, rec)
	}
}
