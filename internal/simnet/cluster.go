package simnet

import (
	"fmt"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/mempool"
	"hammerhead/internal/types"
	"hammerhead/internal/validator"
)

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
	// HammerHead, when non-nil, schedules leaders by reputation with this
	// configuration; nil runs the round-robin baseline.
	HammerHead *core.Config
	// ScheduleSeed seeds every validator's initial schedule permutation.
	ScheduleSeed uint64
	// MempoolSize bounds each validator's pool (default 1<<20).
	MempoolSize int
	// OnCommit observes commits (may be nil).
	OnCommit CommitHook
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

	// validators holds each validator as validator.New assembled it. An
	// executor (ClusterConfig.Execution) applies synchronously inside the
	// commit sink, so its state always reflects a definite virtual instant.
	validators []*validator.Validator
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
	// procs holds each validator's simulated process state.
	procs []process
	// walLogs records, when recordWALs is set, each validator's inserted
	// certificates and own proposals in the order its engine reported them
	// — the simulated write-ahead log a KillRestart recovers from.
	walLogs    [][]walRecord
	recordWALs bool
	restarts   uint64
	cfg        ClusterConfig

	latency  LatencyModel
	onCommit CommitHook
	dropRate float64

	msgsSent    uint64
	msgsDropped uint64
	preDropped  uint64
}

// process is one validator's simulated process: the faults injected into it,
// as virtual times (-1 = never), and its lifecycle.
type process struct {
	crashedAt           int64
	slowFrom, slowUntil int64
	slowMul             float64
	badSigAt            int64 // corrupts every signature it sends from here on
	// Selective withholding of its own headers, its votes for the targets'
	// headers and its certificate broadcasts (Withhold, WithholdVotes,
	// WithholdCerts).
	headers, votes, certs withholding
	// incarnation guards against cross-incarnation delivery: a SIGKILL
	// restart (KillRestart) bumps a validator's incarnation at kill AND at
	// restart, so messages and timers belonging to the dead process — or sent
	// while it was down — are discarded at their scheduled instant instead of
	// leaking into the rebuilt engine. Graceful Recover keeps the incarnation
	// (its model intentionally preserves pre-crash in-memory state).
	incarnation uint64
	// replaying marks a validator whose rebuilt engine is consuming its
	// recorded WAL: the commit sink re-derives commits silently (executor
	// still applies; the CommitHook is suppressed, as the node runtime flags
	// replayed commits), and nothing is recorded twice.
	replaying bool
}

// withholding suppresses one kind of a validator's traffic toward a peer set
// from a virtual time on (at -1 = never).
type withholding struct {
	at    int64
	peers map[types.ValidatorID]bool
}

func newWithholding(peers []types.ValidatorID, from time.Duration) withholding {
	set := make(map[types.ValidatorID]bool, len(peers))
	for _, p := range peers {
		set[p] = true
	}
	return withholding{at: from.Nanoseconds(), peers: set}
}

// covers reports whether the withholding applies to peer at virtual time now.
func (w withholding) covers(peer types.ValidatorID, now int64) bool {
	return w.at >= 0 && now >= w.at && w.peers[peer]
}

// walRecord is one entry of a simulated WAL: exactly one field is set.
type walRecord struct {
	cert     *engine.Certificate
	proposal *engine.Header
}

// recorder is one validator's engine.Observer: the simulated WAL writer.
type recorder struct {
	c  *Cluster
	id types.ValidatorID
}

func (r recorder) Inserted(cert *engine.Certificate) { r.c.record(r.id, walRecord{cert: cert}) }
func (r recorder) Proposed(h *engine.Header)         { r.c.record(r.id, walRecord{proposal: h}) }
func (r recorder) Certified(*engine.Certificate)     {}

func (r recorder) CheckpointCertified(*checkpoint.Certificate) {}

// record appends to a validator's log while it is live; recovery replays
// the log and must not record it again.
func (c *Cluster) record(id types.ValidatorID, rec walRecord) {
	if c.recordWALs && !c.procs[id].replaying {
		c.walLogs[id] = append(c.walLogs[id], rec)
	}
}

// NewCluster wires the deployment; call Start to boot the validators.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Committee == nil || cfg.Latency == nil {
		return nil, fmt.Errorf("simnet: committee and latency are required")
	}
	n := cfg.Committee.Size()
	c := &Cluster{
		Sim:       New(cfg.Seed),
		Committee: cfg.Committee,
		procs:     make([]process, n),
		latency:   cfg.Latency,
		onCommit:  cfg.OnCommit,
		dropRate:  cfg.DropRate,
	}
	never := withholding{at: -1}
	for i := range c.procs {
		c.procs[i] = process{crashedAt: -1, slowMul: 1, badSigAt: -1, headers: never, votes: never, certs: never}
	}

	// Simulated deployments are crash-only (as is the paper's evaluation);
	// use the insecure scheme and skip verification unless asked otherwise.
	scheme := crypto.Scheme(crypto.Insecure{})
	if cfg.Engine.VerifySignatures {
		scheme = crypto.Ed25519{}
	}
	var clusterSeed [32]byte
	clusterSeed[0] = byte(cfg.Seed)
	c.keys = make([]crypto.KeyPair, n)
	c.pubKeys = make([]crypto.PublicKey, n)
	for i := range c.keys {
		kp, err := crypto.NewKeyPair(scheme, clusterSeed, uint32(i))
		if err != nil {
			return nil, fmt.Errorf("simnet: generating keys: %w", err)
		}
		c.keys[i], c.pubKeys[i] = kp, kp.Public
	}

	// Simulated engines always run the serial path: the order stage's
	// goroutine would break virtual time (commits must land at a definite
	// simulated instant). Pipelined ordering is byte-identical to serial by
	// construction — the determinism test in this package proves it — so
	// simulation results transfer to pipelined deployments.
	cfg.Engine.PipelineDepth = 0
	c.cfg = cfg
	c.validators = make([]*validator.Validator, n)
	for i := range c.validators {
		if err := c.buildValidator(types.ValidatorID(i), nil); err != nil {
			return nil, err
		}
	}
	if cfg.Engine.VerifySignatures {
		c.prevers = make([]*engine.PreVerifier, n)
		for i := 0; i < n; i++ {
			c.prevers[i] = engine.NewPreVerifier(scheme, cfg.Committee, c.pubKeys)
		}
	}
	return c, nil
}

// buildValidator assembles one validator's full in-memory state through
// validator.New, its executor over the given snapshot store (the validator's
// disk; nil = fresh). Used at cluster construction and again by KillRestart,
// which rebuilds everything a SIGKILL destroys.
func (c *Cluster) buildValidator(id types.ValidatorID, store execution.SnapshotStore) error {
	cfg := c.cfg
	vcfg := validator.Config{
		Committee:    cfg.Committee,
		Self:         id,
		Keys:         c.keys[id],
		PublicKeys:   c.pubKeys,
		Engine:       cfg.Engine,
		HammerHead:   cfg.HammerHead,
		ScheduleSeed: cfg.ScheduleSeed,
		Mempool:      mempool.FairConfig{MaxSize: cfg.MempoolSize},
		// Serial engines invoke the sink synchronously inside the step, so
		// Sim.Now() is the commit's virtual time.
		Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
			if exec := c.validators[id].Executor; exec != nil {
				// The executor dedupes by sequence, so commits re-derived
				// during a restart's WAL replay apply idempotently.
				exec.ApplyCommit(sub)
			}
			if c.procs[id].replaying {
				return // replay re-derivations are not news to observers
			}
			if c.onCommit != nil {
				c.onCommit(id, sub, c.Sim.Now())
			}
		}),
		Observer: recorder{c: c, id: id},
	}
	if cfg.Execution {
		vcfg.Execution = &execution.Config{CheckpointInterval: cfg.CheckpointInterval, Store: store}
	}
	v, err := validator.New(vcfg)
	if err != nil {
		return fmt.Errorf("simnet: building %s: %w", id, err)
	}
	c.validators[id] = v
	return nil
}

// Start boots every validator at the current virtual time.
func (c *Cluster) Start() {
	for i, v := range c.validators {
		c.dispatch(types.ValidatorID(i), v.Engine.Init(c.Sim.Now()))
	}
}

// Engine returns validator id's engine (read-only use: stats, committer).
func (c *Cluster) Engine(id types.ValidatorID) *engine.Engine { return c.validators[id].Engine }

// Pool returns validator id's mempool.
func (c *Cluster) Pool(id types.ValidatorID) *mempool.FairPool { return c.validators[id].Pool }

// Executor returns validator id's executor (nil unless the cluster was built
// with ClusterConfig.Execution).
func (c *Cluster) Executor(id types.ValidatorID) *execution.Executor {
	return c.validators[id].Executor
}

// Size returns the committee size.
func (c *Cluster) Size() int { return len(c.validators) }

// MessagesSent returns the cumulative network message count.
func (c *Cluster) MessagesSent() uint64 { return c.msgsSent }

// ---- fault injection ----

// CrashAt stops a validator at the given virtual time: it processes no
// events and its queued messages are dropped at delivery. CrashNow crashes
// at the current time (use before Start for crash-from-genesis faults).
func (c *Cluster) CrashAt(id types.ValidatorID, at time.Duration) {
	c.procs[id].crashedAt = at.Nanoseconds()
}

// Recover un-crashes a validator at a future virtual time by scheduling its
// revival: it rejoins with its pre-crash state (crash-recovery of in-memory
// state is exercised separately in internal/storage tests; the simulated
// revival models a process restart that restored state from its WAL).
func (c *Cluster) Recover(id types.ValidatorID, at time.Duration) {
	c.Sim.After(at-time.Duration(c.Sim.Now()), func() {
		c.procs[id].crashedAt = -1
		// Nudge the revived node: re-arm its pacing so it resumes proposing.
		eng := c.Engine(id)
		out := eng.OnTimer(engine.Timer{
			Kind:  engine.TimerRoundDelay,
			Round: uint64(eng.Round()),
		}, c.Sim.Now())
		c.dispatch(id, out)
	})
}

// RecordWALs begins recording every certificate each validator inserts and
// every header it proposes, in order — the simulated equivalent of the node
// runtime's write-ahead log. Must be called before Start; required by
// KillRestart.
func (c *Cluster) RecordWALs() {
	c.recordWALs = true
	c.walLogs = make([][]walRecord, len(c.validators))
}

// Restarts returns how many validator restarts KillRestart has performed.
func (c *Cluster) Restarts() uint64 { return c.restarts }

// KillRestart SIGKILLs the given validators at virtual time `at` and
// restarts each from its recorded WAL after `downtime`. Unlike the graceful
// Recover fault, this models a real process kill: every in-flight message to
// or from the validator is discarded, all in-memory state (engine, DAG,
// scheduler, mempool, executor) is destroyed and rebuilt from scratch, and
// the node runtime's own recovery sequence (validator.Recover) brings it
// back from its recorded log and snapshot store — the validator's "disk",
// which alone survives. Panics unless RecordWALs was called.
func (c *Cluster) KillRestart(ids []types.ValidatorID, at, downtime time.Duration) {
	if !c.recordWALs {
		panic("simnet: KillRestart requires RecordWALs before Start")
	}
	targets := append([]types.ValidatorID(nil), ids...)
	c.Sim.After(at-time.Duration(c.Sim.Now()), func() {
		now := c.Sim.Now()
		for _, id := range targets {
			c.procs[id].crashedAt = now
			// Kill-side incarnation bump: pending deliveries and timers of the
			// dead process die at their scheduled instant.
			c.procs[id].incarnation++
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
	ids := make([]types.ValidatorID, len(c.validators))
	for i := range ids {
		ids[i] = types.ValidatorID(i)
	}
	c.KillRestart(ids, at, downtime)
}

// restartFromWAL rebuilds one validator and recovers it exactly as the node
// runtime does (validator.Recover), replaying its recorded log.
func (c *Cluster) restartFromWAL(id types.ValidatorID) {
	var store execution.SnapshotStore
	if old := c.validators[id].Executor; old != nil {
		store = old.Store() // the snapshot store is the disk: it survives
	}
	if err := c.buildValidator(id, store); err != nil {
		// The same configuration built the validator once already; a failure
		// here is a harness bug, not a simulated fault.
		panic(fmt.Sprintf("simnet: rebuilding %s after kill: %v", id, err))
	}
	// Restart-side incarnation bump: messages sent while the process was down
	// must not leak into the rebuilt engine.
	c.procs[id].incarnation++
	c.procs[id].crashedAt = -1
	c.restarts++

	log := c.walLogs[id]
	replay := func(cert func(*engine.Certificate) error, proposal func(*engine.Header) error) error {
		for _, rec := range log {
			// Clone per replay, as the node's WAL decode would: the rebuilt
			// engine owns (and may mutate) its copies, while the recorded
			// originals stay pristine for the next restart.
			if rec.cert != nil {
				_ = cert((&engine.Message{Kind: engine.KindCertificate, Cert: rec.cert}).Clone().Cert)
			} else {
				_ = proposal((&engine.Message{Kind: engine.KindHeader, Header: rec.proposal}).Clone().Header)
			}
		}
		return nil
	}
	c.procs[id].replaying = true
	// The simulated log cannot fail to replay.
	_ = c.validators[id].Recover(c.Sim.Now, replay, func() { c.procs[id].replaying = false },
		func(out *engine.Output) { c.dispatch(id, out) })
}

// CorruptSignatures makes a validator emit garbage signatures on every
// header, vote and certificate it sends from the given virtual time on — a
// Byzantine signer. Requires ClusterConfig.Engine.VerifySignatures; with
// verification disabled the corruption goes undetected by construction
// (crash-only model). Receivers' pre-verify stages must drop the traffic
// without it ever reaching their engines.
func (c *Cluster) CorruptSignatures(id types.ValidatorID, from time.Duration) {
	c.procs[id].badSigAt = from.Nanoseconds()
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
	round := c.Engine(id).DAG().HighestRound() + 1
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
	for j := range c.validators {
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
	for i := range c.validators {
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
	c.procs[id].headers = newWithholding(peers, from)
}

// WithholdVotes makes validator id suppress its votes for headers
// originating from the given peers from the given virtual time on — the
// vote-withholding variant of Withhold. The withholder still proposes,
// relays and votes for everyone else, so every health signal it emits looks
// normal; only the targeted proposers suffer, and with enough withholders
// (n minus quorum plus one) their vertices never certify at all. Unlike
// header withholding, the damage is attributed to the victim (its proposals
// stall): exactly the griefing pattern reputation scoring has to pin on the
// right validator.
func (c *Cluster) WithholdVotes(id types.ValidatorID, peers []types.ValidatorID, from time.Duration) {
	c.procs[id].votes = newWithholding(peers, from)
}

// WithholdCerts makes validator id suppress its DAG certificate broadcasts
// (engine.KindCertificate) toward the given peers from the given virtual
// time on — the third member of the withholding family. Headers and votes
// still flow, so the withholder certifies its own vertices and looks fully
// alive; the targets simply never receive the resulting certificates and
// must recover them through certificate resync (or fall behind when too few
// honest relays remain).
func (c *Cluster) WithholdCerts(id types.ValidatorID, peers []types.ValidatorID, from time.Duration) {
	c.procs[id].certs = newWithholding(peers, from)
}

// SlowDown multiplies all message latencies touching the validator by
// factor within [from, until] — the §1 incident's "less responsive"
// validators.
func (c *Cluster) SlowDown(id types.ValidatorID, factor float64, from, until time.Duration) {
	p := &c.procs[id]
	p.slowFrom, p.slowUntil, p.slowMul = from.Nanoseconds(), until.Nanoseconds(), factor
}

func (c *Cluster) crashed(id types.ValidatorID, now int64) bool {
	at := c.procs[id].crashedAt
	return at >= 0 && now >= at
}

func (c *Cluster) slowFactor(id types.ValidatorID, now int64) float64 {
	if p := &c.procs[id]; p.slowMul != 1 && now >= p.slowFrom && now <= p.slowUntil {
		return p.slowMul
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
	return c.Pool(id).Submit(tx)
}

// ---- event plumbing ----

// dispatch routes one engine step's output into the simulation.
func (c *Cluster) dispatch(from types.ValidatorID, out *engine.Output) {
	now := c.Sim.Now()
	for _, u := range out.Unicasts {
		c.send(from, u.To, u.Msg, now)
	}
	for _, msg := range out.Broadcasts {
		for i := range c.validators {
			to := types.ValidatorID(i)
			if to == from {
				continue
			}
			c.send(from, to, msg, now)
		}
	}
	for _, t := range out.Timers {
		timer := t
		inc := c.procs[from].incarnation
		c.Sim.After(t.Delay, func() {
			// The incarnation check kills timers armed by a SIGKILLed
			// process: a restarted validator must never receive callbacks the
			// dead incarnation scheduled.
			if c.procs[from].incarnation != inc || c.crashed(from, c.Sim.Now()) {
				return
			}
			c.dispatch(from, c.Engine(from).OnTimer(timer, c.Sim.Now()))
		})
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
	p := &c.procs[from]
	switch {
	case msg.Kind == engine.KindHeader && msg.Header != nil && msg.Header.Source == from && p.headers.covers(to, now),
		msg.Kind == engine.KindVote && msg.Vote != nil && msg.Vote.Voter == from && p.votes.covers(msg.Vote.Origin, now),
		msg.Kind == engine.KindCertificate && msg.Cert != nil && p.certs.covers(to, now):
		// Withheld: only the validator's own headers, its votes endorsing the
		// targeted origins, or its certificates toward the targets — it keeps
		// relaying everything else, so it looks alive.
		return
	}
	if at := p.badSigAt; at >= 0 && now >= at {
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
	delay := c.latency.Delay(int(from), int(to), size, c.Sim.Rand())
	slow := c.slowFactor(from, now) * c.slowFactor(to, now)
	if slow != 1 {
		delay = time.Duration(float64(delay) * slow)
	}
	inc := c.procs[to].incarnation
	c.Sim.After(delay, func() {
		// The incarnation check models SIGKILL's message loss: anything in
		// flight toward a killed process — or sent while it was down — is
		// gone, even if the validator is back up by the delivery instant.
		if c.procs[to].incarnation != inc || c.crashed(to, c.Sim.Now()) {
			return
		}
		if c.prevers != nil && engine.NeedsCheck(msg.Kind) && !c.prevers[to].Check(msg) {
			c.preDropped++
			return
		}
		c.dispatch(to, c.Engine(to).OnMessage(from, msg, c.Sim.Now()))
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
