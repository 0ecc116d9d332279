package simnet

import (
	"fmt"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/mempool"
	"hammerhead/internal/types"
)

// SchedulerFactory builds one validator's leader scheduler over its DAG.
// Factories return leader.RoundRobin for the Bullshark baseline or a
// core.Manager for HammerHead.
type SchedulerFactory func(committee *types.Committee, d *dag.DAG) (leader.Scheduler, error)

// CommitHook observes every commit on every validator, with the virtual
// time it happened. The experiment harness hangs latency accounting here.
type CommitHook func(node types.ValidatorID, sub bullshark.CommittedSubDAG, nowNanos int64)

// ClusterConfig assembles a simulated deployment.
type ClusterConfig struct {
	// Committee of the deployment. Required.
	Committee *types.Committee
	// Engine is the per-validator protocol configuration.
	Engine engine.Config
	// Latency is the network model. Required.
	Latency LatencyModel
	// NewScheduler builds each validator's scheduler. Required.
	NewScheduler SchedulerFactory
	// MempoolSize bounds each validator's pool (default 1<<20).
	MempoolSize int
	// MempoolShards is each pool's shard count, rounded up to a power of
	// two (0 sizes it to the machine).
	MempoolShards int
	// OnCommit observes commits (may be nil).
	OnCommit CommitHook
	// OnInsert observes every certificate a validator accepts into its DAG,
	// in insertion order — the trace recorder behind the pipeline
	// determinism test.
	OnInsert func(node types.ValidatorID, cert *engine.Certificate)
	// Execution attaches a deterministic executor (execution.KVState behind
	// an in-memory snapshot store) to every validator's commit sink, applied
	// synchronously in virtual time, and wires snapshot state-sync
	// serve/install through the engines. Checkpoints carry the scheduler's
	// state, so state-sync works for round-robin and HammerHead alike.
	Execution bool
	// CheckpointInterval is the number of commits between checkpoints
	// (0 = execution default). Ignored without Execution.
	CheckpointInterval uint64
	// Seed drives all simulation randomness.
	Seed int64
	// DropRate silently discards this fraction of messages (0..1),
	// exercising the engine's retransmission and causal-sync machinery.
	// Reliable pairwise channels are part of the model after GST, so the
	// paper's experiments run with 0; fault-injection tests raise it.
	DropRate float64
}

// Cluster is a full simulated deployment: engines, mempools, network and
// fault injection, all in virtual time.
type Cluster struct {
	Sim       *Simulator
	Committee *types.Committee

	engines []*engine.Engine
	pools   []*mempool.FairPool
	// execs holds each validator's executor when ClusterConfig.Execution is
	// set (nil entries otherwise). Applied synchronously inside the commit
	// sink, so executor state always reflects a definite virtual instant.
	execs []*execution.Executor
	// keys holds each validator's signing keys; fault injection that forges
	// protocol artifacts a real Byzantine validator could produce (e.g.
	// quorum-voted certificates over unchecked header fields) signs with
	// them. pubKeys is the committee's verification set.
	keys    []crypto.KeyPair
	pubKeys []crypto.PublicKey
	// prevers holds each validator's pre-verify stage when signature
	// verification is enabled (nil otherwise). The simulator runs Check
	// synchronously at delivery — same code as the node's async stage.
	prevers []*engine.PreVerifier

	crashedAt []int64 // -1 = never
	slowFrom  []int64
	slowUntil []int64
	slowMul   []float64
	badSigAt  []int64 // virtual time a validator starts corrupting; -1 = never
	// withholdAt / withholdFrom model selective withholding: from the given
	// virtual time, the validator suppresses its OWN header broadcasts toward
	// the peer set — enough peers and it never gathers a vote quorum, so its
	// vertices never certify while it otherwise looks alive.
	withholdAt   []int64
	withholdFrom []map[types.ValidatorID]bool
	// voteWithholdAt / voteWithholdFrom model the vote-withholding variant:
	// from the given virtual time, the validator silently refuses to vote for
	// headers ORIGINATING from the peer set. Enough withholders and the
	// targeted proposer can no longer gather a quorum — its vertices never
	// certify even though its headers reach everyone. Unlike header
	// withholding, the damage is attributed to the victim (its proposals
	// stall), which is exactly the griefing pattern reputation scoring has to
	// pin on the right validator.
	voteWithholdAt   []int64
	voteWithholdFrom []map[types.ValidatorID]bool
	// certWithholdAt / certWithholdFrom complete the withholding family: from
	// the given virtual time, the validator suppresses its DAG certificate
	// broadcasts (engine.KindCertificate) toward the peer set. The targets
	// still see headers and votes, so the withholder looks alive — but their
	// DAGs starve of the certified vertices needed to advance rounds and
	// anchor commits, leaning on certificate resync to limp along.
	certWithholdAt   []int64
	certWithholdFrom []map[types.ValidatorID]bool

	// incarnation guards against cross-incarnation delivery: a SIGKILL
	// restart (KillRestart) bumps a validator's incarnation at kill AND at
	// restart, so messages and timers belonging to the dead process — or sent
	// while it was down — are discarded at their scheduled instant instead of
	// leaking into the rebuilt engine. Graceful Recover keeps the incarnation
	// (its model intentionally preserves pre-crash in-memory state).
	incarnation []uint64
	// replaying marks a validator whose rebuilt engine is consuming its
	// recorded WAL: the commit sink re-derives commits silently (executor
	// still applies; the CommitHook is suppressed, as the node runtime flags
	// replayed commits).
	replaying []bool
	// walLogs records each validator's inserted certificates in insertion
	// order when recordWALs is set — the simulated write-ahead log a
	// KillRestart recovers from.
	walLogs    [][]*engine.Certificate
	recordWALs bool
	restarts   uint64
	cfg        ClusterConfig

	latency  LatencyModel
	onCommit CommitHook
	dropRate float64

	msgsSent    uint64
	bytesSent   uint64
	msgsDropped uint64
	preDropped  uint64

	// insertTap, when set (tests), observes every certificate a validator
	// accepts into its DAG, in insertion order. The pipeline determinism
	// test replays this sequence into fresh serial and pipelined engines and
	// asserts byte-identical commit streams.
	insertTap func(node types.ValidatorID, cert *engine.Certificate)
}

// NewCluster wires the deployment; call Start to boot the validators.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Committee == nil || cfg.Latency == nil || cfg.NewScheduler == nil {
		return nil, fmt.Errorf("simnet: committee, latency and scheduler factory are required")
	}
	n := cfg.Committee.Size()
	c := &Cluster{
		Sim:              New(cfg.Seed),
		Committee:        cfg.Committee,
		crashedAt:        make([]int64, n),
		slowFrom:         make([]int64, n),
		slowUntil:        make([]int64, n),
		slowMul:          make([]float64, n),
		badSigAt:         make([]int64, n),
		withholdAt:       make([]int64, n),
		withholdFrom:     make([]map[types.ValidatorID]bool, n),
		voteWithholdAt:   make([]int64, n),
		voteWithholdFrom: make([]map[types.ValidatorID]bool, n),
		certWithholdAt:   make([]int64, n),
		certWithholdFrom: make([]map[types.ValidatorID]bool, n),
		incarnation:      make([]uint64, n),
		replaying:        make([]bool, n),
		latency:          cfg.Latency,
		onCommit:         cfg.OnCommit,
		dropRate:         cfg.DropRate,
		insertTap:        cfg.OnInsert,
	}
	for i := range c.crashedAt {
		c.crashedAt[i] = -1
		c.slowMul[i] = 1
		c.badSigAt[i] = -1
		c.withholdAt[i] = -1
		c.voteWithholdAt[i] = -1
		c.certWithholdAt[i] = -1
	}

	// Simulated deployments are crash-only (as is the paper's evaluation);
	// use the insecure scheme and skip verification unless asked otherwise.
	scheme := crypto.Scheme(crypto.Insecure{})
	if cfg.Engine.VerifySignatures {
		scheme = crypto.Ed25519{}
	}
	var clusterSeed [32]byte
	clusterSeed[0] = byte(cfg.Seed)
	pubKeys := make([]crypto.PublicKey, n)
	keyPairs := make([]crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(scheme, clusterSeed, uint32(i))
		if err != nil {
			return nil, fmt.Errorf("simnet: generating keys: %w", err)
		}
		keyPairs[i] = kp
		pubKeys[i] = kp.Public
	}
	c.keys = keyPairs

	c.pubKeys = pubKeys

	// Simulated engines always run the serial path: the order stage's
	// goroutine would break virtual time (commits must land at a definite
	// simulated instant). Pipelined ordering is byte-identical to serial by
	// construction — the determinism test in this package proves it — so
	// simulation results transfer to pipelined deployments.
	cfg.Engine.PipelineDepth = 0
	c.cfg = cfg
	for i := 0; i < n; i++ {
		eng, pool, exec, err := c.buildValidator(types.ValidatorID(i), nil)
		if err != nil {
			return nil, err
		}
		c.engines = append(c.engines, eng)
		c.pools = append(c.pools, pool)
		c.execs = append(c.execs, exec)
	}
	if cfg.Engine.VerifySignatures {
		c.prevers = make([]*engine.PreVerifier, n)
		for i := 0; i < n; i++ {
			c.prevers[i] = engine.NewPreVerifier(scheme, cfg.Committee, pubKeys, cfg.Engine.VerifyWorkers)
		}
	}
	return c, nil
}

// buildValidator assembles one validator's full in-memory state — mempool,
// DAG, scheduler, executor (over the given snapshot store, which models the
// validator's disk; nil = fresh) and engine. Used at cluster construction and
// again by KillRestart, which rebuilds everything a SIGKILL destroys.
func (c *Cluster) buildValidator(id types.ValidatorID, store execution.SnapshotStore) (*engine.Engine, *mempool.FairPool, *execution.Executor, error) {
	cfg := c.cfg
	pool := mempool.NewFair(mempool.FairConfig{MaxSize: cfg.MempoolSize, Shards: cfg.MempoolShards})
	d := dag.New(cfg.Committee)
	sched, err := cfg.NewScheduler(cfg.Committee, d)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("simnet: building scheduler for %s: %w", id, err)
	}
	var exec *execution.Executor
	if cfg.Execution {
		_, stateful := sched.(leader.StateRestorer)
		exec = execution.NewExecutor(execution.NewKVState(), execution.Config{
			CheckpointInterval: cfg.CheckpointInterval,
			Store:              store,
			// A stateful scheduler (HammerHead) must never install a snapshot
			// without the schedule it was cut under.
			RequireSchedulerState: stateful,
		})
	}
	params := engine.Params{
		Config:     cfg.Engine,
		Committee:  cfg.Committee,
		Self:       id,
		Keys:       c.keys[id],
		PublicKeys: c.pubKeys,
		Batches:    pool,
		Scheduler:  sched,
		DAG:        d,
		// Serial engines invoke the sink synchronously inside the step, so
		// Sim.Now() is the commit's virtual time.
		Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
			if exec != nil {
				// The executor dedupes by sequence, so commits re-derived
				// during a restart's WAL replay apply idempotently.
				exec.ApplyCommit(sub)
			}
			if c.replaying[id] {
				return // replay re-derivations are not news to observers
			}
			if c.onCommit != nil {
				c.onCommit(id, sub, c.Sim.Now())
			}
		}),
	}
	if exec != nil {
		params.Snapshots = exec
		params.InstallSnapshot = exec.InstallFromWire
		params.AppliedSeq = exec.AppliedSeq
	}
	eng, err := engine.New(params)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("simnet: building engine for %s: %w", id, err)
	}
	return eng, pool, exec, nil
}

// Start boots every validator at the current virtual time.
func (c *Cluster) Start() {
	for i := range c.engines {
		id := types.ValidatorID(i)
		out := c.engines[i].Init(c.Sim.Now())
		c.dispatch(id, out)
	}
}

// Engine returns validator id's engine (read-only use: stats, committer).
func (c *Cluster) Engine(id types.ValidatorID) *engine.Engine { return c.engines[id] }

// Pool returns validator id's mempool.
func (c *Cluster) Pool(id types.ValidatorID) *mempool.FairPool { return c.pools[id] }

// Executor returns validator id's executor (nil unless the cluster was built
// with ClusterConfig.Execution).
func (c *Cluster) Executor(id types.ValidatorID) *execution.Executor { return c.execs[id] }

// Size returns the committee size.
func (c *Cluster) Size() int { return len(c.engines) }

// MessagesSent returns the cumulative network message count.
func (c *Cluster) MessagesSent() uint64 { return c.msgsSent }

// BytesSent returns the cumulative network byte count.
func (c *Cluster) BytesSent() uint64 { return c.bytesSent }

// ---- fault injection ----

// CrashAt stops a validator at the given virtual time: it processes no
// events and its queued messages are dropped at delivery. CrashNow crashes
// at the current time (use before Start for crash-from-genesis faults).
func (c *Cluster) CrashAt(id types.ValidatorID, at time.Duration) {
	c.crashedAt[id] = at.Nanoseconds()
}

// Recover un-crashes a validator at a future virtual time by scheduling its
// revival: it rejoins with its pre-crash state (crash-recovery of in-memory
// state is exercised separately in internal/storage tests; the simulated
// revival models a process restart that restored state from its WAL).
func (c *Cluster) Recover(id types.ValidatorID, at time.Duration) {
	c.Sim.After(at-time.Duration(c.Sim.Now()), func() {
		c.crashedAt[id] = -1
		// Nudge the revived node: re-arm its pacing so it resumes proposing.
		out := c.engines[id].OnTimer(engine.Timer{
			Kind:  engine.TimerRoundDelay,
			Round: uint64(c.engines[id].Round()),
		}, c.Sim.Now())
		c.dispatch(id, out)
	})
}

// RecordWALs begins recording every certificate each validator inserts, in
// insertion order — the simulated equivalent of the node runtime's
// write-ahead log. Must be called before Start; required by KillRestart.
func (c *Cluster) RecordWALs() {
	c.recordWALs = true
	c.walLogs = make([][]*engine.Certificate, len(c.engines))
}

// Restarts returns how many validator restarts KillRestart has performed.
func (c *Cluster) Restarts() uint64 { return c.restarts }

// KillRestart SIGKILLs the given validators at virtual time `at` and
// restarts each from its recorded WAL after `downtime`. Unlike the graceful
// Recover fault, this models a real process kill: every in-flight message to
// or from the validator is discarded, all in-memory state (engine, DAG,
// scheduler, mempool, executor) is destroyed and rebuilt from scratch, the
// recorded certificate log is replayed silently (exactly as node recovery
// suppresses replay outputs), and the validator re-enters the committee
// through the crash-rejoin handshake. Only the snapshot store — the
// validator's "disk" — survives. Panics unless RecordWALs was called.
func (c *Cluster) KillRestart(ids []types.ValidatorID, at, downtime time.Duration) {
	if !c.recordWALs {
		panic("simnet: KillRestart requires RecordWALs before Start")
	}
	targets := append([]types.ValidatorID(nil), ids...)
	c.Sim.After(at-time.Duration(c.Sim.Now()), func() {
		now := c.Sim.Now()
		for _, id := range targets {
			c.crashedAt[id] = now
			// Kill-side incarnation bump: pending deliveries and timers of the
			// dead process die at their scheduled instant.
			c.incarnation[id]++
		}
	})
	c.Sim.After(at+downtime-time.Duration(c.Sim.Now()), func() {
		for _, id := range targets {
			c.restartFromWAL(id)
		}
	})
}

// KillRestartAll SIGKILLs the whole committee simultaneously — the
// correlated power-loss / rolling-infra-failure scenario a production
// deployment must survive — and restarts every validator from its WAL.
func (c *Cluster) KillRestartAll(at, downtime time.Duration) {
	ids := make([]types.ValidatorID, len(c.engines))
	for i := range ids {
		ids[i] = types.ValidatorID(i)
	}
	c.KillRestart(ids, at, downtime)
}

// restartFromWAL rebuilds one validator and mirrors the node runtime's
// recovery sequence: snapshot restore → silent WAL replay → go live → rejoin.
func (c *Cluster) restartFromWAL(id types.ValidatorID) {
	var store execution.SnapshotStore
	if old := c.execs[id]; old != nil {
		store = old.Store() // the snapshot store is the disk: it survives
	}
	eng, pool, exec, err := c.buildValidator(id, store)
	if err != nil {
		// The same configuration built the validator once already; a failure
		// here is a harness bug, not a simulated fault.
		panic(fmt.Sprintf("simnet: rebuilding %s after kill: %v", id, err))
	}
	c.engines[id] = eng
	c.pools[id] = pool
	c.execs[id] = exec
	// Restart-side incarnation bump: messages sent while the process was down
	// must not leak into the rebuilt engine.
	c.incarnation[id]++
	c.crashedAt[id] = -1
	c.restarts++

	now := c.Sim.Now()
	c.replaying[id] = true
	if exec != nil {
		// A locally persisted checkpoint fast-forwards executor and engine
		// before WAL replay, exactly as the node runtime does. The output is
		// discarded: nothing transmits during recovery.
		if snap, ok := exec.Store().Latest(); ok {
			if meta, install, err := exec.InstallLocal(snap); err == nil {
				eng.FastForwardToSnapshot(meta, install, now)
			}
		}
	}
	initOut := eng.Init(now)
	for _, cert := range c.walLogs[id] {
		// Clone per replay, as the node's WAL decode would: the rebuilt
		// engine owns (and may mutate) its copies, while the recorded
		// originals stay pristine for the next restart.
		msg := (&engine.Message{Kind: engine.KindCertificate, Cert: cert}).Clone()
		eng.OnMessage(id, msg, now) // outputs discarded — replay is silent
	}
	c.replaying[id] = false
	c.dispatch(id, initOut)
	c.dispatch(id, eng.StartRejoin(now))
}

// CorruptSignatures makes a validator emit garbage signatures on every
// header, vote and certificate it sends from the given virtual time on — a
// Byzantine signer. Requires ClusterConfig.Engine.VerifySignatures; with
// verification disabled the corruption goes undetected by construction
// (crash-only model). Receivers' pre-verify stages must drop the traffic
// without it ever reaching their engines.
func (c *Cluster) CorruptSignatures(id types.ValidatorID, from time.Duration) {
	c.badSigAt[id] = from.Nanoseconds()
}

// PreVerifyDropped returns the total number of messages rejected by the
// validators' pre-verify stages.
func (c *Cluster) PreVerifyDropped() uint64 { return c.preDropped }

// ForgeGhostCerts makes validator id act Byzantine from the given virtual
// time on: every interval it broadcasts a correctly-signed, quorum-voted
// certificate whose header references a parent digest that exists nowhere.
// This models a real attack: voters never check that a header's edges
// resolve (they cannot — an honest proposer may reference parents the voter
// has not received yet), so a Byzantine proposer collects genuine votes for
// a fabricated-edge header and certifies it. Receivers pend the certificate
// waiting for the ghost parent; only pending-state garbage collection
// bounds the damage (see TestGhostParentChurnKeepsPendingBounded).
func (c *Cluster) ForgeGhostCerts(id types.ValidatorID, from, every time.Duration) {
	seq := uint64(0)
	var tick func()
	tick = func() {
		now := c.Sim.Now()
		if !c.crashed(id, now) {
			seq++
			c.broadcastGhostCert(id, seq, now)
		}
		c.Sim.After(every, tick)
	}
	c.Sim.After(from-time.Duration(c.Sim.Now()), tick)
}

func (c *Cluster) broadcastGhostCert(id types.ValidatorID, seq uint64, now int64) {
	round := c.engines[id].DAG().HighestRound() + 1
	var ghost types.Digest
	ghost[0], ghost[1] = 0xBA, byte(id)
	for i := 0; i < 8; i++ {
		ghost[2+i] = byte(seq >> (8 * i))
	}
	header := engine.Header{Round: round, Source: id, Edges: []types.Digest{ghost}}
	digest := header.Digest()
	sig, err := c.keys[id].Sign(digest[:])
	if err != nil {
		return
	}
	header.Signature = sig
	cert := &engine.Certificate{Header: header}
	for j := range c.engines {
		// Honest voters WOULD sign this header (edges are unchecked at vote
		// time), so signing on their behalf reproduces exactly the quorum a
		// real Byzantine proposer collects.
		vsig, err := c.keys[j].Sign(digest[:])
		if err != nil {
			return
		}
		cert.Votes = append(cert.Votes, engine.VoteSig{Voter: types.ValidatorID(j), Signature: vsig})
	}
	msg := &engine.Message{Kind: engine.KindCertificate, Cert: cert}
	for i := range c.engines {
		if to := types.ValidatorID(i); to != id {
			c.send(id, to, msg, now)
		}
	}
}

// Withhold makes validator id suppress its OWN header broadcasts toward the
// given peers from the given virtual time on — the selective-withholding
// Byzantine leader of the paper's §1 incident. Withholding from more than
// n-quorum peers starves the validator's headers of a vote quorum, so its
// vertices never certify and never enter anyone's DAG: to the committee it
// looks like a leader that is up (it still votes and relays) but whose
// proposals never land — exactly the behavior reputation scheduling must
// score out and round-robin keeps re-electing.
func (c *Cluster) Withhold(id types.ValidatorID, peers []types.ValidatorID, from time.Duration) {
	set := make(map[types.ValidatorID]bool, len(peers))
	for _, p := range peers {
		set[p] = true
	}
	c.withholdFrom[id] = set
	c.withholdAt[id] = from.Nanoseconds()
}

// WithholdVotes makes validator id suppress its votes for headers
// originating from the given peers from the given virtual time on — the
// vote-withholding variant of Withhold. The withholder still proposes,
// relays and votes for everyone else, so every health signal it emits looks
// normal; only the targeted proposers suffer, and with enough withholders
// (n minus quorum plus one) their vertices never certify at all.
func (c *Cluster) WithholdVotes(id types.ValidatorID, peers []types.ValidatorID, from time.Duration) {
	set := make(map[types.ValidatorID]bool, len(peers))
	for _, p := range peers {
		set[p] = true
	}
	c.voteWithholdFrom[id] = set
	c.voteWithholdAt[id] = from.Nanoseconds()
}

// WithholdCerts makes validator id suppress its DAG certificate broadcasts
// (engine.KindCertificate) toward the given peers from the given virtual
// time on — the third member of the withholding family. Headers and votes
// still flow, so the withholder certifies its own vertices and looks fully
// alive; the targets simply never receive the resulting certificates and
// must recover them through certificate resync (or fall behind when too few
// honest relays remain).
func (c *Cluster) WithholdCerts(id types.ValidatorID, peers []types.ValidatorID, from time.Duration) {
	set := make(map[types.ValidatorID]bool, len(peers))
	for _, p := range peers {
		set[p] = true
	}
	c.certWithholdFrom[id] = set
	c.certWithholdAt[id] = from.Nanoseconds()
}

// SlowDown multiplies all message latencies touching the validator by
// factor within [from, until] — the §1 incident's "less responsive"
// validators.
func (c *Cluster) SlowDown(id types.ValidatorID, factor float64, from, until time.Duration) {
	c.slowFrom[id] = from.Nanoseconds()
	c.slowUntil[id] = until.Nanoseconds()
	c.slowMul[id] = factor
}

func (c *Cluster) crashed(id types.ValidatorID, now int64) bool {
	at := c.crashedAt[id]
	return at >= 0 && now >= at
}

func (c *Cluster) slowFactor(id types.ValidatorID, now int64) float64 {
	if c.slowMul[id] != 1 && now >= c.slowFrom[id] && now <= c.slowUntil[id] {
		return c.slowMul[id]
	}
	return 1
}

// ---- client interface ----

// SubmitTx hands a transaction to a validator's mempool, stamping the
// submission time. Submitting to a crashed validator fails, mirroring a
// client whose target is down (callers fail over).
func (c *Cluster) SubmitTx(id types.ValidatorID, tx types.Transaction) error {
	if c.crashed(id, c.Sim.Now()) {
		return fmt.Errorf("simnet: validator %s is crashed", id)
	}
	if tx.SubmitTimeNanos == 0 {
		tx.SubmitTimeNanos = c.Sim.Now()
	}
	return c.pools[id].Submit(tx)
}

// ---- event plumbing ----

// dispatch routes one engine step's output into the simulation.
func (c *Cluster) dispatch(from types.ValidatorID, out *engine.Output) {
	now := c.Sim.Now()
	for _, u := range out.Unicasts {
		c.send(from, u.To, u.Msg, now)
	}
	for _, msg := range out.Broadcasts {
		for i := range c.engines {
			to := types.ValidatorID(i)
			if to == from {
				continue
			}
			c.send(from, to, msg, now)
		}
	}
	for _, t := range out.Timers {
		timer := t
		inc := c.incarnation[from]
		c.Sim.After(t.Delay, func() {
			// The incarnation check kills timers armed by a SIGKILLed
			// process: a restarted validator must never receive callbacks the
			// dead incarnation scheduled.
			if c.incarnation[from] != inc || c.crashed(from, c.Sim.Now()) {
				return
			}
			c.dispatch(from, c.engines[from].OnTimer(timer, c.Sim.Now()))
		})
	}
	if c.recordWALs {
		// The recorded log persists across KillRestart (it IS the WAL);
		// replayed re-inserts bypass dispatch, so nothing records twice.
		c.walLogs[from] = append(c.walLogs[from], out.InsertedCerts...)
	}
	if c.insertTap != nil {
		for _, cert := range out.InsertedCerts {
			c.insertTap(from, cert)
		}
	}
}

// MessagesDropped returns the number of messages lost to DropRate.
func (c *Cluster) MessagesDropped() uint64 { return c.msgsDropped }

func (c *Cluster) send(from, to types.ValidatorID, msg *engine.Message, now int64) {
	if c.crashed(from, now) {
		return
	}
	if c.dropRate > 0 && c.Sim.Rand().Float64() < c.dropRate {
		c.msgsDropped++
		return
	}
	if at := c.withholdAt[from]; at >= 0 && now >= at &&
		msg.Kind == engine.KindHeader && msg.Header != nil &&
		msg.Header.Source == from && c.withholdFrom[from][to] {
		// Selective withholding: only the validator's own headers are
		// suppressed — it keeps voting and relaying, so it looks alive.
		return
	}
	if at := c.voteWithholdAt[from]; at >= 0 && now >= at &&
		msg.Kind == engine.KindVote && msg.Vote != nil &&
		msg.Vote.Voter == from && c.voteWithholdFrom[from][msg.Vote.Origin] {
		// Vote-withholding variant: only votes endorsing the targeted
		// origins are dropped; everything else flows normally.
		return
	}
	if at := c.certWithholdAt[from]; at >= 0 && now >= at &&
		msg.Kind == engine.KindCertificate && msg.Cert != nil &&
		c.certWithholdFrom[from][to] {
		// Certificate withholding: the sender's DAG certificate broadcasts
		// toward the targets vanish; headers and votes still flow.
		return
	}
	if at := c.badSigAt[from]; at >= 0 && now >= at {
		msg = corruptSignatures(msg) // clones internally
	} else if c.prevers != nil {
		// Each recipient owns its copy, as after a wire decode: the
		// pre-verify stage marks (and may strip votes from) payloads, and
		// neither the sender's state nor a sibling recipient's copy may be
		// affected.
		msg = msg.Clone()
	}
	size := msg.EncodedSize()
	c.msgsSent++
	c.bytesSent += uint64(size)
	delay := c.latency.Delay(int(from), int(to), size, c.Sim.Rand())
	slow := c.slowFactor(from, now) * c.slowFactor(to, now)
	if slow != 1 {
		delay = time.Duration(float64(delay) * slow)
	}
	inc := c.incarnation[to]
	c.Sim.After(delay, func() {
		// The incarnation check models SIGKILL's message loss: anything in
		// flight toward a killed process — or sent while it was down — is
		// gone, even if the validator is back up by the delivery instant.
		if c.incarnation[to] != inc || c.crashed(to, c.Sim.Now()) {
			return
		}
		if c.prevers != nil && engine.NeedsCheck(msg.Kind) && !c.prevers[to].Check(msg) {
			c.preDropped++
			return
		}
		c.dispatch(to, c.engines[to].OnMessage(from, msg, c.Sim.Now()))
	})
}

// corruptSignatures returns a copy of msg with every signature replaced by
// garbage of the same length, leaving the original (which the sender's own
// state may reference) untouched.
func corruptSignatures(msg *engine.Message) *engine.Message {
	m := msg.Clone()
	switch m.Kind {
	case engine.KindHeader:
		m.Header.Signature = mangle(m.Header.Signature)
	case engine.KindVote:
		m.Vote.Signature = mangle(m.Vote.Signature)
	case engine.KindCertificate:
		for i := range m.Cert.Votes {
			m.Cert.Votes[i].Signature = mangle(m.Cert.Votes[i].Signature)
		}
	case engine.KindCertResponse:
		for _, cert := range m.CertResponse.Certs {
			for i := range cert.Votes {
				cert.Votes[i].Signature = mangle(cert.Votes[i].Signature)
			}
		}
	}
	return m
}

func mangle(sig crypto.Signature) crypto.Signature {
	if len(sig) == 0 {
		return crypto.Signature{0xBA, 0xD5, 0x16}
	}
	out := append(crypto.Signature(nil), sig...)
	for i := range out {
		out[i] ^= 0xA5
	}
	return out
}
