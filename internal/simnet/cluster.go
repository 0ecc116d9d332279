package simnet

import (
	"fmt"
	"path/filepath"
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
	// OnCommit observes commits (may be nil).
	OnCommit CommitHook
	// CheckpointInterval is about the number of commits between the
	// checkpoints of every validator's executor, never more than one past it
	// (0 = execution default; see execution.Config). The executor
	// (execution.KVState) applies each commit synchronously in virtual time;
	// its checkpoints are saved beside the validator's log under RecordWALs
	// (nowhere without it) and served and installed by snapshot state-sync.
	// Checkpoints carry the scheduler's state, so state-sync works for
	// round-robin and HammerHead alike.
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

	// validators holds each validator as validator.New assembled it. Its
	// executor applies synchronously inside the commit sink, so its state
	// always reflects a definite virtual instant.
	validators []*validator.Validator
	// keys holds each validator's signing keys; fault injection that forges
	// protocol artifacts a real Byzantine validator could produce (e.g.
	// quorum-voted certificates over unchecked header fields) signs with
	// them. pubKeys is the committee's verification set.
	keys    []crypto.KeyPair
	pubKeys []crypto.PublicKey
	// procs holds each validator's simulated process state.
	procs []process
	// dir is where each validator keeps its log and snapshot files, one
	// directory each ("" = no disk; see RecordWALs).
	dir      string
	restarts uint64
	cfg      ClusterConfig
	// tap, when set by the package's tests, wraps each validator's observer
	// (nil without a disk) as the validator is built: the tests read its live
	// insertion and proposal order there.
	tap func(id types.ValidatorID, next engine.Observer) engine.Observer
	// certify, when set by the package's tests before the validators are
	// built, has every executor certify its checkpoints: each validator signs
	// a fresh checkpoint's tuple as a node does, and the shares and
	// certificates travel the simulated network.
	certify bool

	latency  LatencyModel
	onCommit CommitHook
	dropRate float64

	msgsSent    uint64
	msgsDropped uint64
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
	// log is the validator's durable record, nil without a disk; a SIGKILL
	// closes it and the restart opens the same file again.
	log *validator.Log
	// incarnation guards against cross-incarnation delivery: a SIGKILL
	// restart (KillRestart) bumps a validator's incarnation at kill AND at
	// restart, so messages and timers belonging to the dead process — or sent
	// while it was down — are discarded at their scheduled instant instead of
	// leaking into the rebuilt engine. Graceful Recover keeps the incarnation
	// (its model intentionally preserves pre-crash in-memory state).
	incarnation uint64
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

// logObserver writes a validator's log inline, as the node's writer does on
// its own goroutine, and swallows write errors as that writer does: a failing
// disk must not stall consensus. A proposal's record is durable within the
// step that proposed it.
type logObserver struct{ *validator.Log }

func (o logObserver) Inserted(cert *engine.Certificate) { _ = o.Append(cert) }

func (o logObserver) Proposed(h *engine.Header) bool {
	_ = o.AppendProposal(h)
	return true
}

func (logObserver) Certified(*engine.Certificate)               {}
func (logObserver) CheckpointCertified(*checkpoint.Certificate) {}

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
	var err error
	if c.keys, c.pubKeys, err = crypto.CommitteeKeys(scheme, clusterSeed, n); err != nil {
		return nil, fmt.Errorf("simnet: generating keys: %w", err)
	}

	c.cfg = cfg
	c.validators = make([]*validator.Validator, n)
	for i := range c.validators {
		if err := c.buildValidator(types.ValidatorID(i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildValidator assembles one validator's full in-memory state through
// validator.New. With a disk (RecordWALs) it hands it the validator's log,
// which the observer writes and beside which validator.New keeps the
// executor's checkpoints. Used at cluster construction, by RecordWALs and
// again by KillRestart, which rebuilds everything a SIGKILL destroys.
func (c *Cluster) buildValidator(id types.ValidatorID) error {
	cfg := c.cfg
	var log *validator.Log
	var obs engine.Observer
	if c.dir != "" {
		log = validator.NewLog(c.walPath(id), nil)
		obs = logObserver{log}
	}
	if c.tap != nil {
		obs = c.tap(id, obs)
	}
	c.procs[id].log = log
	vcfg := validator.Config{
		Committee:    cfg.Committee,
		Self:         id,
		Keys:         c.keys[id],
		PublicKeys:   c.pubKeys,
		Engine:       cfg.Engine,
		HammerHead:   cfg.HammerHead,
		ScheduleSeed: cfg.ScheduleSeed,
		// Serial engines invoke the sink synchronously inside the step, so
		// Sim.Now() is the commit's virtual time.
		Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
			v := c.validators[id]
			// The executor dedupes by sequence, so commits re-derived during
			// a restart's log replay apply idempotently.
			v.Executor.ApplyCommit(sub)
			if v.Replaying() {
				return // replay re-derivations are not news to observers
			}
			if c.onCommit != nil {
				c.onCommit(id, sub, c.Sim.Now())
			}
		}),
		Execution: execution.Config{CheckpointInterval: cfg.CheckpointInterval},
		Observer:  obs,
	}
	if c.certify {
		vcfg.Execution.CheckpointCerts = true
		vcfg.Execution.OnCheckpoint = func(snap execution.Snapshot) { c.signCheckpoint(id, snap) }
	}
	v, err := validator.New(vcfg, log)
	if err != nil {
		return fmt.Errorf("simnet: building %s: %w", id, err)
	}
	c.validators[id] = v
	return nil
}

// signCheckpoint starts the certification of a checkpoint validator id
// just wrote, as the node's checkpoint hook does: its engine signs the tuple
// in a step of its own, scheduled at once, since the write happened inside
// the step that delivered the commit.
func (c *Cluster) signCheckpoint(id types.ValidatorID, snap execution.Snapshot) {
	if snap.Cert != nil || c.validators[id].Replaying() {
		return
	}
	meta := snap.Meta()
	inc := c.procs[id].incarnation
	c.Sim.After(0, func() {
		if c.procs[id].incarnation != inc || c.crashed(id, c.Sim.Now()) {
			return
		}
		c.dispatch(id, c.Engine(id).OnLocalCheckpoint(meta))
	})
}

// walPath is where validator id keeps its log under RecordWALs.
func (c *Cluster) walPath(id types.ValidatorID) string {
	return filepath.Join(c.dir, id.String(), "wal")
}

// Start boots every validator at the current virtual time, opening its log
// first under RecordWALs.
func (c *Cluster) Start() {
	for i, v := range c.validators {
		out, err := v.Init(c.Sim.Now())
		if err != nil {
			// The log is created under RecordWALs' directory: a failure here
			// is a broken disk or a harness bug, not a simulated fault.
			panic(fmt.Sprintf("simnet: opening %s's log: %v", types.ValidatorID(i), err))
		}
		c.dispatch(types.ValidatorID(i), out)
	}
}

// Engine returns validator id's engine (read-only use: stats, committer).
func (c *Cluster) Engine(id types.ValidatorID) *engine.Engine { return c.validators[id].Engine }

// Pool returns validator id's mempool.
func (c *Cluster) Pool(id types.ValidatorID) *mempool.FairPool { return c.validators[id].Pool }

// Executor returns validator id's executor.
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
// revival: it rejoins with its pre-crash state, as if its process had paused.
// KillRestart is the fault that destroys that state and recovers it from the
// validator's files.
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

// RecordWALs gives every validator a disk under dir, one directory each: the
// node's own write-ahead log (storage.WAL, written through validator.Log)
// and the snapshot files beside it (storage.SnapshotStore, opened by
// validator.New), which compact the log at every checkpoint. Must be called
// before Start; required by KillRestart. Without it the cluster touches no filesystem. Close
// releases the files.
func (c *Cluster) RecordWALs(dir string) error {
	c.dir = dir
	for i := range c.validators {
		if err := c.buildValidator(types.ValidatorID(i)); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the validators' logs (RecordWALs). Every record was flushed
// as it was written, so a failed close loses nothing.
func (c *Cluster) Close() {
	for _, p := range c.procs {
		if p.log != nil {
			_ = p.log.Close()
		}
	}
}

// Restarts returns how many validator restarts KillRestart has performed.
func (c *Cluster) Restarts() uint64 { return c.restarts }

// KillRestart SIGKILLs the given validators at virtual time `at` and
// restarts each from its files after `downtime`. Unlike the graceful Recover
// fault, this models a real process kill: every in-flight message to or from
// the validator is discarded, its log is closed, all in-memory state (engine,
// DAG, scheduler, mempool, executor) is destroyed and rebuilt from scratch,
// and the node runtime's own recovery sequence (validator.Recover) brings it
// back from its log and snapshot files — the validator's disk, which alone
// survives — exactly as node.Start does: the latest snapshot installed, the
// log's intact prefix replayed, a torn tail trimmed. Panics unless
// RecordWALs was called.
func (c *Cluster) KillRestart(ids []types.ValidatorID, at, downtime time.Duration) {
	if c.dir == "" {
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
			// The dead process's file handle goes with it. Every record was
			// flushed as it was written, so a failed close loses nothing.
			_ = c.procs[id].log.Close()
		}
	})
	c.Sim.After(at+downtime-time.Duration(c.Sim.Now()), func() {
		for _, id := range targets {
			c.restart(id)
		}
	})
}

// KillRestartAll SIGKILLs the whole committee simultaneously — the
// correlated power-loss / rolling-infra-failure scenario a production
// deployment must survive — and restarts every validator from its files.
func (c *Cluster) KillRestartAll(at, downtime time.Duration) {
	ids := make([]types.ValidatorID, len(c.validators))
	for i := range ids {
		ids[i] = types.ValidatorID(i)
	}
	c.KillRestart(ids, at, downtime)
}

// restart rebuilds one killed validator over its files and recovers it as
// the node runtime does (validator.Recover).
func (c *Cluster) restart(id types.ValidatorID) {
	// The same configuration built the validator once already, and its log
	// is the one this cluster wrote: a failure here is a harness bug or a
	// broken disk, not a simulated fault.
	if err := c.buildValidator(id); err != nil {
		panic(fmt.Sprintf("simnet: rebuilding %s after kill: %v", id, err))
	}
	// Restart-side incarnation bump: messages sent while the process was down
	// must not leak into the rebuilt engine.
	c.procs[id].incarnation++
	c.procs[id].crashedAt = -1
	c.restarts++
	err := c.validators[id].Recover(c.Sim.Now, func(out *engine.Output) { c.dispatch(id, out) })
	if err != nil {
		panic(fmt.Sprintf("simnet: recovering %s from its log: %v", id, err))
	}
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
// validators' pre-verify stages (0 without signature checks). It reads the
// stages of the validators as they are now: a KillRestart builds a new
// validator, and the count its old stage held is lost with it.
func (c *Cluster) PreVerifyDropped() uint64 {
	var dropped uint64
	for _, v := range c.validators {
		if pv := v.Engine.PreVerifier(); pv != nil {
			dropped += pv.Stats().Dropped
		}
	}
	return dropped
}

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
	filled, err := c.validators[id].Submit(tx)
	if filled {
		c.dispatch(id, c.Engine(id).OnBatchFull(c.Sim.Now()))
	}
	return err
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
		msg = corruptSignatures(msg)
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
		c.dispatch(to, c.Engine(to).OnMessage(from, msg, c.Sim.Now()))
	})
}

// corruptSignatures returns a copy of msg with every signature replaced by
// garbage of the same length. It builds new payloads for what it mangles:
// the original is shared with the sender's own state and every recipient.
func corruptSignatures(msg *engine.Message) *engine.Message {
	m := *msg
	switch m.Kind {
	case engine.KindHeader:
		h := *m.Header
		h.Signature = mangle(h.Signature)
		m.Header = &h
	case engine.KindVote:
		v := *m.Vote
		v.Signature = mangle(v.Signature)
		m.Vote = &v
	case engine.KindCertificate:
		m.Cert = mangleVotes(m.Cert)
	case engine.KindCertResponse:
		certs := make([]*engine.Certificate, len(m.CertResponse.Certs))
		for i, cert := range m.CertResponse.Certs {
			certs[i] = mangleVotes(cert)
		}
		m.CertResponse = &engine.CertResponse{Certs: certs}
	}
	return &m
}

// mangleVotes returns a copy of c with every vote signature mangled.
func mangleVotes(c *engine.Certificate) *engine.Certificate {
	d := &engine.Certificate{Header: c.Header, Votes: make([]engine.VoteSig, len(c.Votes))}
	for i, vs := range c.Votes {
		d.Votes[i] = engine.VoteSig{Voter: vs.Voter, Signature: mangle(vs.Signature)}
	}
	return d
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
