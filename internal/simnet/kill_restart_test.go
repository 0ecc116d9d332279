package simnet

import (
	"fmt"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
)

// killRestartCluster builds an execution-enabled, WAL-recorded cluster with a
// per-validator commit timeline for post-crash liveness assertions.
func killRestartCluster(t *testing.T, hh *core.Config, seed int64) (*Cluster, *[]commitAt) {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MinRoundDelay = 30 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
	cfg.ResyncInterval = 150 * time.Millisecond
	if cfg.GCDepth != engine.DefaultConfig().GCDepth {
		t.Fatalf("test must run at the default GCDepth, got %d", cfg.GCDepth)
	}
	timeline := &[]commitAt{}
	cluster, err := NewCluster(ClusterConfig{
		Committee:          committee,
		Engine:             cfg,
		Latency:            Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		HammerHead:         hh,
		ScheduleSeed:       1,
		Execution:          true,
		CheckpointInterval: 8,
		Seed:               seed,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, nowNanos int64) {
			*timeline = append(*timeline, commitAt{node: node, at: nowNanos})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.RecordWALs()
	return cluster, timeline
}

type commitAt struct {
	node types.ValidatorID
	at   int64
}

// submitKVLoad schedules an open-loop PutOp stream across the live
// validators so the ledger state is non-trivial and roots have teeth.
func submitKVLoad(cluster *Cluster, until time.Duration) {
	var tick func()
	seq := uint64(0)
	tick = func() {
		if cluster.Sim.Now() >= until.Nanoseconds() {
			return
		}
		seq++
		key := []byte(fmt.Sprintf("k%03d", seq%211))
		val := []byte(fmt.Sprintf("v%d", seq))
		_ = cluster.SubmitTx(types.ValidatorID(seq%4), types.Transaction{
			ID:      seq,
			Payload: execution.PutOp(key, val),
		})
		cluster.Sim.After(5*time.Millisecond, tick)
	}
	cluster.Sim.After(5*time.Millisecond, tick)
}

// TestFullCommitteeKillRestartConverges is the acceptance test for the
// crash-rejoin handshake: EVERY validator is SIGKILLed mid-flight and
// restarted from its WAL simultaneously, at the default GCDepth. Before the
// handshake this wedged the committee at its pre-crash round forever —
// replay-time proposals were never on the wire, so round pulls found nothing
// new and nobody could complete the round. With it, commits must resume
// within the run budget and every validator's chained state root must agree
// at a common commit sequence.
func TestFullCommitteeKillRestartConverges(t *testing.T) {
	const (
		killAt   = 8 * time.Second
		downtime = 1 * time.Second
		runFor   = 30 * time.Second
	)
	cluster, timeline := killRestartCluster(t, nil, 11)
	cluster.KillRestartAll(killAt, downtime)
	submitKVLoad(cluster, 25*time.Second)

	// Capture the pre-crash frontier just before the kill lands.
	var preKillOrdered types.Round
	cluster.Sim.After(killAt-time.Millisecond, func() {
		preKillOrdered = cluster.Engine(0).Committer().LastOrderedRound()
	})

	cluster.Start()
	cluster.Sim.RunFor(runFor)

	if got := cluster.Restarts(); got != 4 {
		t.Fatalf("restarts = %d, want 4", got)
	}
	if preKillOrdered < 20 {
		t.Fatalf("committee ordered only %d rounds before the kill; test lost its teeth", preKillOrdered)
	}
	restartNanos := (killAt + downtime).Nanoseconds()
	fresh := make(map[types.ValidatorID]int)
	for _, c := range *timeline {
		if c.at >= restartNanos {
			fresh[c.node]++
		}
	}
	for i := 0; i < 4; i++ {
		id := types.ValidatorID(i)
		st := cluster.Engine(id).Stats()
		if st.RejoinsCompleted == 0 {
			t.Fatalf("v%d never completed the rejoin handshake: %+v", i, st)
		}
		if fresh[id] == 0 {
			t.Fatalf("v%d delivered no fresh commits after the restart (pre-kill round %d, now at %d)",
				i, preKillOrdered, cluster.Engine(id).Committer().LastOrderedRound())
		}
		if got := cluster.Engine(id).Committer().LastOrderedRound(); got <= preKillOrdered {
			t.Fatalf("v%d wedged at round %d (pre-kill %d)", i, got, preKillOrdered)
		}
	}

	// Convergence: every executor chained the same state root at the lowest
	// commonly applied commit sequence — identical post-restart histories.
	minSeq := ^uint64(0)
	for i := 0; i < 4; i++ {
		if seq := cluster.Executor(types.ValidatorID(i)).AppliedSeq(); seq < minSeq {
			minSeq = seq
		}
	}
	if minSeq == 0 || minSeq == ^uint64(0) {
		t.Fatal("some executor applied nothing")
	}
	ref, ok := cluster.Executor(0).RootAt(minSeq)
	if !ok {
		t.Fatalf("v0 no longer retains root at seq %d", minSeq)
	}
	for i := 1; i < 4; i++ {
		root, ok := cluster.Executor(types.ValidatorID(i)).RootAt(minSeq)
		if !ok {
			t.Fatalf("v%d no longer retains root at seq %d (applied %d)",
				i, minSeq, cluster.Executor(types.ValidatorID(i)).AppliedSeq())
		}
		if root != ref {
			t.Fatalf("state roots diverged at seq %d: v0=%s v%d=%s", minSeq, ref, i, root)
		}
	}
}

// TestHammerHeadFullCommitteeKillRestartConverges runs the same correlated
// SIGKILL under the reputation scheduler, at the default GCDepth: each
// restarted validator first installs its own persisted checkpoint — which
// carries the scheduler's state, so the engine fast-forwards the schedule
// exactly as a live node would — then replays its WAL and rejoins. Liveness,
// state-root agreement AND leader-schedule agreement must all be
// re-established.
func TestHammerHeadFullCommitteeKillRestartConverges(t *testing.T) {
	const (
		killAt   = 8 * time.Second
		downtime = 1 * time.Second
	)
	cluster, timeline := killRestartCluster(t, hhConfig(10), 13)
	cluster.KillRestartAll(killAt, downtime)
	submitKVLoad(cluster, 22*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(28 * time.Second)

	restartNanos := (killAt + downtime).Nanoseconds()
	fresh := make(map[types.ValidatorID]int)
	for _, c := range *timeline {
		if c.at >= restartNanos {
			fresh[c.node]++
		}
	}
	for i := 0; i < 4; i++ {
		id := types.ValidatorID(i)
		if cluster.Engine(id).Stats().RejoinsCompleted == 0 {
			t.Fatalf("v%d never completed the rejoin handshake", i)
		}
		if fresh[id] == 0 {
			t.Fatalf("v%d delivered no fresh commits after the restart", i)
		}
	}
	minSeq := ^uint64(0)
	for i := 0; i < 4; i++ {
		if seq := cluster.Executor(types.ValidatorID(i)).AppliedSeq(); seq < minSeq {
			minSeq = seq
		}
	}
	if minSeq == 0 || minSeq == ^uint64(0) {
		t.Fatal("some executor applied nothing")
	}
	ref, ok := cluster.Executor(0).RootAt(minSeq)
	if !ok {
		t.Fatalf("v0 no longer retains root at seq %d", minSeq)
	}
	for i := 1; i < 4; i++ {
		if root, ok := cluster.Executor(types.ValidatorID(i)).RootAt(minSeq); !ok || root != ref {
			t.Fatalf("v%d root at seq %d = %s (ok=%v), want %s", i, minSeq, root, ok, ref)
		}
	}
	// Post-recovery schedule agreement: every rebuilt scheduler must resolve
	// the identical leader sequence over the retained window.
	minOrdered := cluster.Engine(0).Committer().LastOrderedRound()
	for i := 1; i < 4; i++ {
		if r := cluster.Engine(types.ValidatorID(i)).Committer().LastOrderedRound(); r < minOrdered {
			minOrdered = r
		}
	}
	for i := 1; i < 4; i++ {
		assertSchedulesAgree(t, cluster, 0, types.ValidatorID(i), minOrdered)
	}
}

// TestPartialKillRestartRejoinsLiveCommittee kills and restarts a single
// validator while the rest keep committing: the restarted validator must
// gather its rejoin quorum from the live majority, merge their frontier and
// catch back up — the handshake subsumes the old single-node recovery path.
func TestPartialKillRestartRejoinsLiveCommittee(t *testing.T) {
	cluster, timeline := killRestartCluster(t, nil, 17)
	cluster.KillRestart([]types.ValidatorID{3}, 6*time.Second, 2*time.Second)
	submitKVLoad(cluster, 20*time.Second)
	cluster.Start()
	cluster.Sim.RunFor(25 * time.Second)

	if got := cluster.Restarts(); got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	st := cluster.Engine(3).Stats()
	if st.RejoinsCompleted == 0 {
		t.Fatalf("restarted validator never completed rejoin: %+v", st)
	}
	restartNanos := (8 * time.Second).Nanoseconds()
	var fresh int
	for _, c := range *timeline {
		if c.node == 3 && c.at >= restartNanos {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("restarted validator delivered no fresh commits")
	}
	obs := cluster.Engine(0).Committer().LastOrderedRound()
	rec := cluster.Engine(3).Committer().LastOrderedRound()
	if rec+20 < obs {
		t.Fatalf("restarted validator lags: round %d vs observer %d", rec, obs)
	}
}

// TestKillRestartRestoresVotedRoundMark kills a validator after it proposed
// round r and before that header certified. The header's votes are still in
// flight, and the restart is quick enough that they reach the new process.
// Its recorded log holds the proposal, so recovery must restore the
// voted-round mark: the proposal floor reaches r, and the only vertex of
// (r, victim) any peer ever holds carries the digest signed before the crash.
// A restart that signed a fresh header for r would have equivocated the slot.
func TestKillRestartRestoresVotedRoundMark(t *testing.T) {
	const victim = types.ValidatorID(3)
	cluster, _ := killRestartCluster(t, nil, 23)
	submitKVLoad(cluster, 8*time.Second)

	var (
		round         types.Round
		digest        types.Digest
		certifiedDead bool
		held, forked  int
	)
	var watchPeers func()
	watchPeers = func() {
		for p := types.ValidatorID(0); p < victim; p++ {
			if v, ok := cluster.Engine(p).DAG().Get(round, victim); ok {
				if v.Digest() == digest {
					held++
				} else {
					forked++
				}
			}
		}
		cluster.Sim.After(time.Millisecond, watchPeers)
	}
	var watchVictim func()
	watchVictim = func() {
		eng := cluster.Engine(victim)
		h := eng.CurrentProposal()
		if h == nil {
			cluster.Sim.After(time.Millisecond, watchVictim)
			return
		}
		if _, certified := eng.DAG().Get(h.Round, victim); certified {
			cluster.Sim.After(time.Millisecond, watchVictim)
			return
		}
		round, digest = h.Round, h.Digest()
		cluster.KillRestart([]types.ValidatorID{victim}, time.Duration(cluster.Sim.Now()), 5*time.Millisecond)
		// Runs right after the kill: the dead engine never certified r.
		cluster.Sim.After(0, func() { _, certifiedDead = eng.DAG().Get(round, victim) })
		watchPeers()
	}
	cluster.Sim.After(3*time.Second, watchVictim)

	cluster.Start()
	cluster.Sim.RunFor(10 * time.Second)

	if round == 0 || cluster.Restarts() != 1 {
		t.Fatalf("the victim was never killed mid-proposal (round %d, restarts %d)", round, cluster.Restarts())
	}
	if certifiedDead {
		t.Fatalf("the header of round %d certified before the kill; test lost its teeth", round)
	}
	if got := cluster.Engine(victim).ProposalFloor(); got < round {
		t.Fatalf("restarted validator's proposal floor is %d, want >= %d: the voted-round mark was not restored", got, round)
	}
	if forked > 0 {
		t.Fatalf("peers hold a vertex of (%d, %s) whose digest is not the pre-crash header's", round, victim)
	}
	if held == 0 {
		t.Fatalf("no peer ever held the restored header's vertex of round %d", round)
	}
	if cluster.Engine(victim).Stats().RejoinsCompleted == 0 {
		t.Fatal("restarted validator never completed the rejoin handshake")
	}
}
