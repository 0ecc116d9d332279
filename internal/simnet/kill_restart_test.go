package simnet

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
)

// killRestartCluster builds an execution-enabled cluster whose validators
// keep their logs and snapshots on disk, with a per-validator commit timeline
// for post-crash liveness assertions.
func killRestartCluster(t *testing.T, hh *core.Config, seed int64) (*Cluster, *[]commitAt) {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MinRoundDelay = 30 * time.Millisecond
	cfg.LeaderTimeout = 300 * time.Millisecond
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
		CheckpointInterval: 8,
		Seed:               seed,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, nowNanos int64) {
			*timeline = append(*timeline, commitAt{node: node, at: nowNanos})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.RecordWALs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
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

// lateRecordTap is a validator's observer for TestKillBeforeRecordCertifiesOnce.
// It notes every certificate the validator inserts, and, once, it holds the
// record of the victim's own header back for recordLag: the header is on the
// wire at once, and the engine hears that it is durable only when the write
// lands — which a kill before then prevents, the record dying with the
// process, as an unflushed write behind the node's WAL writer does.
type lateRecordTap struct {
	engine.Observer
	c      *Cluster
	id     types.ValidatorID
	insert func(*engine.Certificate)
	hold   func(*engine.Header) bool
}

func (o lateRecordTap) Inserted(cert *engine.Certificate) {
	o.Observer.Inserted(cert)
	o.insert(cert)
}

func (o lateRecordTap) Proposed(h *engine.Header) bool {
	if !o.hold(h) {
		return o.Observer.Proposed(h)
	}
	inc := o.c.procs[o.id].incarnation
	o.c.Sim.After(recordLag, func() {
		if o.c.procs[o.id].incarnation != inc {
			return // killed before the write landed
		}
		o.Observer.Proposed(h)
		o.c.dispatch(o.id, o.c.Engine(o.id).OnProposalDurable(h.Round, o.c.Sim.Now()))
	})
	return false
}

// recordLag is how long the held record takes: longer than the 40 ms the
// header and its votes take on killRestartCluster's network, so the quorum of
// votes is in before the record is.
const recordLag = 100 * time.Millisecond

// TestKillBeforeRecordCertifiesOnce kills a validator after its header went
// out and its quorum of votes came back, but before the header's record was
// durable. The engine certifies an own header only once its record is, so the
// dead process never certified it, and the votes for it died with the
// process. The validator restarts from a log without that header: whatever it
// proposes for the slot now, the peers that voted for the first header refuse
// a second. So the run ends with no slot holding two different certificates
// on any validator, the lost header certified nowhere, and the committee —
// the restarted validator included — committing, under one chain of roots.
func TestKillBeforeRecordCertifiesOnce(t *testing.T) {
	const victim = types.ValidatorID(3)
	cluster, timeline := killRestartCluster(t, nil, 29)
	submitKVLoad(cluster, 8*time.Second)

	type slot struct {
		round  types.Round
		source types.ValidatorID
	}
	certified := map[slot]types.Digest{}
	var twice []slot
	var (
		lost         *engine.Header
		killedAt     int64
		certifiedNow bool
	)
	cluster.tap = func(id types.ValidatorID, next engine.Observer) engine.Observer {
		return lateRecordTap{Observer: next, c: cluster, id: id,
			insert: func(cert *engine.Certificate) {
				s := slot{cert.Header.Round, cert.Header.Source}
				d := cert.Digest()
				if have, ok := certified[s]; ok && have != d {
					twice = append(twice, s)
				}
				certified[s] = d
			},
			hold: func(h *engine.Header) bool {
				if id != victim || lost != nil || cluster.Sim.Now() < (3*time.Second).Nanoseconds() {
					return false
				}
				lost = h
				eng := cluster.Engine(victim)
				at := time.Duration(cluster.Sim.Now()) + recordLag*4/5
				cluster.KillRestart([]types.ValidatorID{victim}, at, 5*time.Millisecond)
				cluster.Sim.After(at-time.Duration(cluster.Sim.Now()), func() {
					killedAt = cluster.Sim.Now()
					_, certifiedNow = eng.DAG().Get(h.Round, victim)
				})
				return true
			},
		}
	}
	for i := range cluster.validators {
		if err := cluster.buildValidator(types.ValidatorID(i)); err != nil {
			t.Fatal(err)
		}
	}

	cluster.Start()
	cluster.Sim.RunFor(10 * time.Second)

	if lost == nil || killedAt == 0 || cluster.Restarts() != 1 {
		t.Fatalf("the victim was never killed between its header and its record (restarts %d)", cluster.Restarts())
	}
	if certifiedNow {
		t.Fatalf("the round-%d header certified before its record was durable", lost.Round)
	}
	if d, ok := certified[slot{lost.Round, victim}]; ok && d == lost.Digest() {
		t.Fatalf("the round-%d header whose record was lost certified", lost.Round)
	}
	if len(twice) > 0 {
		t.Fatalf("slots holding two different certificates: %v", twice)
	}
	for v := types.ValidatorID(0); int(v) < cluster.Size(); v++ {
		fresh := 0
		for _, c := range *timeline {
			if c.node == v && c.at > killedAt+int64(time.Second) {
				fresh++
			}
		}
		if fresh == 0 {
			t.Fatalf("v%d committed nothing a second after the restart", v)
		}
	}
	if obs, rec := cluster.Engine(0).Committer().LastOrderedRound(), cluster.Engine(victim).Committer().LastOrderedRound(); rec+20 < obs {
		t.Fatalf("restarted validator lags: round %d vs observer %d", rec, obs)
	}
	assertRootsAgree(t, cluster)
}

// TestKillRestartRecoversFromCompactedLog kills a validator after its
// executor has cut several checkpoints, each compacting its log at the
// checkpoint's floor. Recovery must work from what a real node keeps on disk:
// the newest snapshot file, installed first, and a log that no longer starts
// at genesis. Afterwards every validator chains the same state root.
func TestKillRestartRecoversFromCompactedLog(t *testing.T) {
	const (
		victim   = types.ValidatorID(2)
		killAt   = 8 * time.Second
		downtime = time.Second
	)
	cluster, timeline := killRestartCluster(t, hhConfig(10), 31)
	cluster.KillRestart([]types.ValidatorID{victim}, killAt, downtime)
	submitKVLoad(cluster, 20*time.Second)

	var (
		checkpoints uint64
		atKill      storage.WALInfo
		snap        execution.Snapshot
		haveSnap    bool
		installed   uint64
		ordered     types.Round
	)
	cluster.Sim.After(killAt-time.Millisecond, func() {
		checkpoints = cluster.Executor(victim).Checkpoints()
	})
	// Scheduled after KillRestart, so it runs right after the kill: the
	// victim's files as the dead process left them.
	cluster.Sim.After(killAt, func() {
		atKill, _ = inspectLog(t, cluster.walPath(victim))
		store, err := storage.NewSnapshotStore(cluster.walPath(victim) + ".snapshots")
		if err != nil {
			t.Errorf("opening the dead validator's snapshots: %v", err)
			return
		}
		snap, haveSnap = store.Latest()
	})
	// Right after the restart: what recovery rebuilt before any new commit.
	cluster.Sim.After(killAt+downtime, func() {
		installed = cluster.Executor(victim).AppliedSeq()
		ordered = cluster.Engine(victim).Committer().LastOrderedRound()
	})
	cluster.Start()
	cluster.Sim.RunFor(25 * time.Second)

	if checkpoints < 2 {
		t.Fatalf("the victim cut %d checkpoints before the kill, want at least 2", checkpoints)
	}
	if atKill.LowestRound <= 1 || atKill.Certs == 0 {
		t.Fatalf("the log at the kill holds %+v: never compacted, so recovery did not start from a checkpoint", atKill)
	}
	if !haveSnap || snap.Floor > atKill.LowestRound {
		t.Fatalf("newest snapshot on disk: present %v, floor %d; the log starts at round %d, so rounds in between are lost",
			haveSnap, snap.Floor, atKill.LowestRound)
	}
	if installed < snap.CommitSeq || ordered < snap.Round {
		t.Fatalf("after recovery the executor stood at commit %d and the committer at round %d, below the snapshot file's (%d, %d): the snapshot was not installed",
			installed, ordered, snap.CommitSeq, snap.Round)
	}
	if cluster.Restarts() != 1 || cluster.Engine(victim).Stats().RejoinsCompleted == 0 {
		t.Fatalf("restarts %d, rejoins %d", cluster.Restarts(), cluster.Engine(victim).Stats().RejoinsCompleted)
	}
	fresh := 0
	for _, c := range *timeline {
		if c.node == victim && c.at >= (killAt+downtime).Nanoseconds() {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("the restarted validator delivered no fresh commits")
	}
	assertRootsAgree(t, cluster)
}

// TestKillRestartTrimsATornTail kills a validator while the last record of
// its log is a certificate — flushed, not fsynced — and tears that record at a
// seeded offset, as a power loss mid-write would. Recovery replays the intact
// prefix and trims the tail; the validator rejoins, appends after the trim,
// and never signs a second header for a slot it signed before the kill.
func TestKillRestartTrimsATornTail(t *testing.T) {
	const victim = types.ValidatorID(1)
	cluster, timeline := killRestartCluster(t, nil, 37)
	submitKVLoad(cluster, 12*time.Second)

	signed := map[types.Round]types.Digest{}
	var resigned []types.Round
	lastWasCert := false
	cluster.setTap(func(id types.ValidatorID, cert *engine.Certificate, h *engine.Header) {
		if id != victim {
			return
		}
		lastWasCert = cert != nil
		if h == nil {
			return
		}
		if d, ok := signed[h.Round]; ok && d != h.Digest() {
			resigned = append(resigned, h.Round)
		}
		signed[h.Round] = h.Digest()
	})

	var (
		killedAt int64
		tornLen  int64
		// The log right after recovery: the bytes it replays and holds.
		validAfter, sizeAfter int64
	)
	rng := rand.New(rand.NewSource(37))
	var watch func()
	watch = func() {
		if !lastWasCert {
			cluster.Sim.After(time.Millisecond, watch)
			return
		}
		killedAt = cluster.Sim.Now()
		cluster.KillRestart([]types.ValidatorID{victim}, time.Duration(killedAt), 500*time.Millisecond)
		cluster.Sim.After(0, func() { // after the kill: the log is closed
			path := cluster.walPath(victim)
			off, n, kind := lastRecord(t, path)
			if kind != walKindCert {
				t.Errorf("the log's last record is of kind %d, want a certificate", kind)
				return
			}
			tornLen = n
			if err := os.Truncate(path, off+1+rng.Int63n(n-1)); err != nil {
				t.Error(err)
			}
		})
		cluster.Sim.After(500*time.Millisecond, func() { // after the restart
			var after storage.WALInfo
			after, sizeAfter = inspectLog(t, cluster.walPath(victim))
			validAfter = after.ValidBytes
		})
	}
	cluster.Sim.After(4*time.Second, watch)
	cluster.Start()
	cluster.Sim.RunFor(15 * time.Second)

	if killedAt == 0 || tornLen == 0 {
		t.Fatal("the victim was never killed with a certificate at the end of its log")
	}
	if len(resigned) > 0 {
		t.Fatalf("the restarted validator signed a second header for rounds %v", resigned)
	}
	if cluster.Restarts() != 1 || cluster.Engine(victim).Stats().RejoinsCompleted == 0 {
		t.Fatalf("restarts %d, rejoins %d", cluster.Restarts(), cluster.Engine(victim).Stats().RejoinsCompleted)
	}
	fresh := 0
	for _, c := range *timeline {
		if c.node == victim && c.at > killedAt {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("the restarted validator delivered no fresh commits")
	}
	// Recovery trimmed the torn record: what it appended follows the intact
	// prefix, where the next replay reaches it.
	if validAfter != sizeAfter {
		t.Fatalf("after recovery the log replays %d of its %d bytes: the torn tail was not trimmed", validAfter, sizeAfter)
	}
	if end, size := inspectLog(t, cluster.walPath(victim)); end.ValidBytes != size {
		t.Fatalf("the log replays %d of its %d bytes", end.ValidBytes, size)
	}
	assertRootsAgree(t, cluster)
}

// TestKillRestartReplaysItsLogUnverified kills a validator that checks every
// signature and restarts it from its log, once intact and once with its last
// record, a certificate, torn. The validator verified each certificate before
// it recorded it, so the replay verifies no signature; it rebuilds the DAG it
// held at the kill, and its commits, except that the torn record stops the
// replay: its vertex is missing and nothing after it is read.
func TestKillRestartReplaysItsLogUnverified(t *testing.T) {
	t.Run("intact", func(t *testing.T) { testReplayUnverified(t, false) })
	t.Run("torn", func(t *testing.T) { testReplayUnverified(t, true) })
}

func testReplayUnverified(t *testing.T, torn bool) {
	const (
		victim   = types.ValidatorID(3)
		downtime = 500 * time.Millisecond
	)
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.VerifySignatures = true
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       cfg,
		Latency:      Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed: 1,
		Seed:         41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.RecordWALs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	submitKVLoad(cluster, 4*time.Second)
	var lastCert *engine.Certificate
	cluster.setTap(func(id types.ValidatorID, cert *engine.Certificate, h *engine.Header) {
		if id == victim {
			lastCert = cert
		}
	})

	var (
		verifies      atomic.Int64
		atKill, after replayState
		recorded      storage.WALInfo
		cut           types.Digest
		restarted     bool
	)
	var watch func()
	watch = func() {
		if torn && lastCert == nil {
			cluster.Sim.After(time.Millisecond, watch)
			return
		}
		cluster.KillRestart([]types.ValidatorID{victim}, time.Duration(cluster.Sim.Now()), downtime)
		cluster.Sim.After(0, func() { // after the kill: the log is closed
			atKill = replayStateOf(cluster.Engine(victim))
			path := cluster.walPath(victim)
			if torn {
				off, n, kind := lastRecord(t, path)
				if kind != walKindCert {
					t.Errorf("the log's last record is of kind %d, want a certificate", kind)
				}
				cut = lastCert.Digest()
				if err := os.Truncate(path, off+1+rand.New(rand.NewSource(41)).Int63n(n-1)); err != nil {
					t.Error(err)
				}
			}
			recorded, _ = inspectLog(t, path)
			// The restarted process counts its public-key operations.
			cluster.keys[victim].Scheme = countingScheme{cluster.keys[victim].Scheme, &verifies}
		})
		cluster.Sim.After(downtime, func() { // right after the restart
			restarted = true
			after = replayStateOf(cluster.Engine(victim))
			if got := verifies.Load(); got != 0 {
				t.Errorf("replaying %d recorded certificates verified %d signatures, want none", recorded.Certs, got)
			}
		})
	}
	cluster.Sim.After(3*time.Second, watch)
	cluster.Start()
	cluster.Sim.RunFor(4 * time.Second)

	if !restarted || recorded.Certs < 100 {
		t.Fatalf("restarted %v over %d recorded certificates: the test lost its teeth", restarted, recorded.Certs)
	}
	if after.received != uint64(recorded.Certs) {
		t.Fatalf("the replay took %d certificates, the log's intact prefix holds %d", after.received, recorded.Certs)
	}
	want := maps.Clone(atKill.vertices)
	if torn {
		if _, ok := want[cut]; !ok {
			t.Fatal("the torn certificate was not in the DAG at the kill")
		}
		delete(want, cut)
	}
	for d := range after.vertices {
		if _, ok := want[d]; !ok && after.vertices[d] >= atKill.floor {
			t.Fatalf("the rebuilt DAG holds vertex %s of round %d, not in the DAG at the kill", d, after.vertices[d])
		}
	}
	for d, r := range want {
		if _, ok := after.vertices[d]; !ok {
			t.Fatalf("the rebuilt DAG lacks vertex %s of round %d", d, r)
		}
	}
	if !torn && after.ordered != atKill.ordered {
		t.Fatalf("the replay ordered %+v, the validator had ordered %+v at the kill", after.ordered, atKill.ordered)
	}
}

// replayState is what a validator's engine holds: its DAG's vertices (digest
// to round) above its floor, and its committer's counters.
type replayState struct {
	vertices map[types.Digest]types.Round
	floor    types.Round
	ordered  bullshark.Stats
	received uint64
}

func replayStateOf(eng *engine.Engine) replayState {
	d := eng.DAG()
	st := replayState{vertices: map[types.Digest]types.Round{}, floor: d.PrunedTo(),
		ordered: eng.Committer().Stats(), received: eng.Stats().CertsReceived}
	for r := d.PrunedTo(); r <= d.HighestRound(); r++ {
		for _, v := range d.RoundVertices(r) {
			st.vertices[v.Digest()] = r
		}
	}
	return st
}

// countingScheme counts signature verifications.
type countingScheme struct {
	crypto.Scheme
	verifies *atomic.Int64
}

func (s countingScheme) Verify(pub crypto.PublicKey, msg []byte, sig crypto.Signature) bool {
	s.verifies.Add(1)
	return s.Scheme.Verify(pub, msg, sig)
}

// inspectLog is what a restart would replay from the log at path
// (storage.Inspect), beside the file's size.
func inspectLog(t *testing.T, path string) (storage.WALInfo, int64) {
	t.Helper()
	info, err := storage.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info, st.Size()
}

// walKindCert is the storage log's certificate record kind.
const walKindCert = 0x01

// lastRecord walks the log's frames (4-byte length, 4-byte CRC, then a body
// of version tag, kind and payload) and returns the last one's offset, framed
// length and kind.
func lastRecord(t *testing.T, path string) (off, n int64, kind byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pos int64
	for pos+8 <= int64(len(data)) {
		size := int64(binary.BigEndian.Uint32(data[pos:]))
		if pos+8+size > int64(len(data)) || size < 2 {
			break
		}
		off, n, kind = pos, 8+size, data[pos+9]
		pos += 8 + size
	}
	if n == 0 {
		t.Fatal("the log holds no record")
	}
	return off, n, kind
}
