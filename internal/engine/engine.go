package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// BatchProvider supplies the transaction batch for the next header. The
// mempool implements it; tests use stubs.
type BatchProvider interface {
	// NextBatch returns at most maxTx transactions, or nil for an empty
	// header. Returned transactions are considered in-flight.
	NextBatch(nowNanos int64, maxTx int) *types.Batch
	// Pending is how many transactions NextBatch would hand out if asked for
	// all of them.
	Pending() int
}

// Observer sees what a validator must record or announce about itself: every
// certificate it accepts into its DAG, every header it signs, and every
// checkpoint certificate it attaches. The node's WAL writer, tracer and
// gateway implement it, and so does the simulator's recorder. Every method
// runs on the engine goroutine, in the order the events happen.
type Observer interface {
	// Inserted sees every certificate accepted into the DAG, in insertion
	// (parents-first) order, strictly BEFORE its vertex can contribute to any
	// commit delivered through the CommitSink: in pipelined mode the vertex
	// reaches the order stage only after Inserted returns. A runtime that
	// logs certificates here and gates commit delivery on the log's progress
	// keeps every commit it hands to execution re-derivable from the log.
	Inserted(*Certificate)
	// Proposed sees every header this validator signs and proposes, before
	// its broadcast is queued. It may block until the header is durable: the
	// recorded header is the voted-round high-water mark a restart restores
	// (RestoreProposal) instead of building a conflicting header for a slot
	// whose certificate may have survived only in a peer's log.
	Proposed(*Header)
	// Certified sees every certificate formed for this validator's OWN header
	// (a quorum of votes gathered, or the n=1 instant self-certification);
	// certificates received from peers are not delivered here. It must not
	// block.
	Certified(*Certificate)
	// CheckpointCertified sees every checkpoint certificate once the
	// execution layer holds it (Execution.AttachCertificate returned), in
	// ascending commit-seq order, exactly once each. It must not block.
	CheckpointCertified(*checkpoint.Certificate)
}

// nopObserver stands in when Params.Observer is nil.
type nopObserver struct{}

func (nopObserver) Inserted(*Certificate)  {}
func (nopObserver) Proposed(*Header)       {}
func (nopObserver) Certified(*Certificate) {}

func (nopObserver) CheckpointCertified(*checkpoint.Certificate) {}

// Unicast is a message addressed to one validator.
type Unicast struct {
	To  types.ValidatorID
	Msg *Message
}

// Output collects everything one engine step wants the runtime to do.
// Runtimes must dispatch Unicasts/Broadcasts and arm Timers, in any order
// (the engine assumes nothing about scheduling). Commits are NOT part of the
// output: they are delivered through the CommitSink registered at
// construction — synchronously within the step when the pipeline is
// disabled, asynchronously from the order stage when it is enabled.
type Output struct {
	Unicasts   []Unicast
	Broadcasts []*Message
	Timers     []Timer
}

func (o *Output) unicast(to types.ValidatorID, msg *Message) {
	o.Unicasts = append(o.Unicasts, Unicast{To: to, Msg: msg})
}

func (o *Output) broadcast(msg *Message) {
	o.Broadcasts = append(o.Broadcasts, msg)
}

func (o *Output) timer(t Timer) {
	o.Timers = append(o.Timers, t)
}

// Stats are cumulative engine counters.
type Stats struct {
	HeadersProposed uint64
	VotesSent       uint64
	CertsFormed     uint64
	CertsReceived   uint64
	CertsPended     uint64
	LeaderTimeouts  uint64
	SyncRequests    uint64
	SyncResponses   uint64
	InvalidMessages uint64
	// Snapshot state-sync counters: requests sent, response chunks served,
	// snapshots installed, installs rejected (corrupt/stale), chunks dropped
	// for a per-chunk CRC mismatch before ever reaching the assembly buffer.
	SnapshotRequests        uint64
	SnapshotResponses       uint64
	SnapshotInstalls        uint64
	SnapshotInstallFailures uint64
	SnapshotChunkRejects    uint64
	// Crash-rejoin handshake counters: requests broadcast (first attempt and
	// retries), responses served to restarting peers, handshakes completed.
	RejoinRequests   uint64
	RejoinResponses  uint64
	RejoinsCompleted uint64
	// Checkpoint certificate counters: signature shares received from peers,
	// certificates this validator's accumulator assembled, certificates
	// adopted from peer broadcasts.
	CheckpointSigs         uint64
	CheckpointCertsFormed  uint64
	CheckpointCertsAdopted uint64
	// Own headers given up before they certified, and the transactions
	// carried from them into a later own header (a transaction abandoned
	// twice counts twice).
	HeadersAbandoned uint64
	TxCarried        uint64
	// Own headers proposed because a full batch opened the pacing gate while
	// neither MinRoundDelay nor the f+1 rule had (see pacingOpen).
	HeadersFullEarly uint64
	// Own certified vertices dropped below the pruning floor without ever
	// having been ordered, and the transactions in them: acknowledged writes
	// that will never commit. Peers reference a vertex only while they are in
	// the next round; after that only its producer's next vertex does, and
	// the catch-up jump of a validator more than four rounds behind (or one
	// slow for longer than GCDepth rounds) cuts that chain (see ROADMAP).
	OwnVerticesPrunedUnordered uint64
	OwnTxPrunedUnordered       uint64
}

// roundSlots is the engine's state for one round, a slot per ValidatorID.
type roundSlots struct {
	// votedFor[origin], for the origins in voted, is the full digest of the one
	// header of (round, origin) this validator signed: a second is equivocation.
	voted    types.ValidatorSet
	votedFor []types.Digest
	// certs[source] is the certificate behind the DAG's vertex of
	// (round, source), retained to serve syncing peers.
	certs []*Certificate
}

// minRetainer is implemented by schedulers (core.Manager) whose score scans
// constrain DAG pruning.
type minRetainer interface {
	MinRetainedRound() types.Round
}

// Engine is the per-validator protocol state machine. All methods must be
// called from a single goroutine (or the simulator's event loop); time is
// passed in explicitly so simulated and wall-clock runs share every line of
// protocol logic.
//
// Per-round state — the vote cast at each (round, origin), the certificate
// retained for each (round, source) — is slot-addressed like the DAG's rounds:
// one types.RoundWindow of arrays indexed by ValidatorID, whose floor is the
// pruning floor, so a lookup is two array steps and pruning one DropBelow. It
// pays a pointer per round it spans and a roundSlots per round voted at;
// onHeader votes only below floor + dag.MaxRetainedRounds, the DAG's own
// bound, so that is the most a committee member's headers can make it span.
// The votes gathered for the current own header are a slot array as well.
//
// The causal-sync sets (pendingCerts, pendingByMissing, requested) stay maps:
// their keys are digests of what this validator does NOT hold — a missing
// parent has no known (round, source) — they are empty in steady state, and
// MaxPendingCerts and the floor bound them.
type Engine struct {
	config    Config
	committee *types.Committee
	self      types.ValidatorID
	keys      crypto.KeyPair
	pubKeys   []crypto.PublicKey
	batches   BatchProvider

	dagStore  *dag.DAG
	committer *bullshark.Committer
	scheduler leader.Scheduler
	sink      CommitSink
	observer  Observer
	// proposalFloor is the voted-round high-water mark restored from the WAL:
	// the engine never CONSTRUCTS a new header at a round at or below it (the
	// restored header itself is re-transmitted instead), because a fresh
	// header for an already-signed slot could equivocate it (see
	// RestoreProposal).
	proposalFloor types.Round
	// exec is the execution layer (nil without one): it serves local
	// checkpoints to peers, installs fetched ones, reports its applied
	// sequence for rejoin frontiers and stores checkpoint certificates.
	// Snapshot state-sync: schedFastForward is non-nil when the scheduler
	// tolerates jumping past ordering history (requesting is disabled
	// otherwise); schedRestore is non-nil when the scheduler additionally
	// needs its state restored from the snapshot before the jump
	// (core.Manager); snapFetch is the active download.
	exec             Execution
	schedFastForward scheduleFastForwarder
	schedRestore     leader.StateRestorer
	snapFetch        snapFetch
	// rejoin is the crash-rejoin handshake's gathering state.
	rejoin rejoinState
	// Checkpoint certification (nil/zero unless the execution layer
	// certifies checkpoints): ckptAcc assembles quorum certificates from
	// gossiped signature shares; ckptDelivered is the highest commit seq
	// handed to the execution layer (dedupes peer cert broadcasts, which can
	// race the local quorum).
	ckptAcc       *checkpoint.Accumulator
	ckptDelivered uint64
	// stage is the asynchronous order stage (stage 2 of the pipeline); nil
	// when PipelineDepth == 0, in which case the committer runs inline on
	// the ingest path.
	stage *orderStage

	round           types.Round
	curHeader       *Header
	curHeaderDigest types.Digest
	// carried holds the transactions of own headers abandoned before they
	// certified; the next own headers take them ahead of the mempool's, so a
	// batch leaves the engine only inside a certificate.
	carried []types.Transaction
	// restoredHeader marks curHeader as re-adopted from the WAL rather than
	// built by this process (see abandonHeader).
	restoredHeader bool
	// votes[voter] is voter's signature over curHeader, for the voters
	// voteStake has counted; both are reset per own header.
	votes         []crypto.Signature
	voteStake     *types.StakeAccumulator
	ownCertFormed bool
	roundDelayOK  bool
	// The anchor round whose leader-wait timer is running, and the one whose
	// wait expired (0: none, round 0 never waits). Read only at e.round.
	leaderTimerArmed types.Round
	leaderTimedOut   types.Round

	// rounds holds each retained round's slots; its floor is the pruning floor.
	rounds types.RoundWindow[*roundSlots]

	pendingCerts     map[types.Digest]*Certificate
	pendingByMissing map[types.Digest][]types.Digest
	requested        map[types.Digest]bool
	// pendingRounds counts pending certificates per round so the
	// maxPendingRound high-water mark can be maintained without scanning
	// pendingCerts: refreshing it on removal only walks this map's keys,
	// and only when the highest round just emptied.
	pendingRounds map[types.Round]int
	resyncArmed   bool

	commitsSinceGC    uint64
	insertsSinceGC    uint64
	progressLastRound types.Round
	progressTarget    uint32
	maxPendingRound   types.Round
	lastRangeReqFloor types.Round
	lastRangeReqNanos int64
	stats             Stats
}

// Params bundles the engine's construction dependencies.
type Params struct {
	Config    Config
	Committee *types.Committee
	Self      types.ValidatorID
	Keys      crypto.KeyPair
	// PublicKeys holds each validator's verification key, indexed by ID.
	PublicKeys []crypto.PublicKey
	Batches    BatchProvider
	// Scheduler selects leaders: leader.RoundRobin for the baseline,
	// core.Manager for HammerHead.
	Scheduler leader.Scheduler
	// DAG is the validator's vertex store; the scheduler must have been
	// built over the same store.
	DAG *dag.DAG
	// Commits receives ordered sub-DAGs. Nil discards them (counter-only
	// experiments); runtimes that execute transactions must set it.
	Commits CommitSink
	// Execution, when non-nil, is the validator's execution layer: snapshot
	// state-sync serves and installs through it, and checkpoint
	// certification runs when it certifies checkpoints.
	Execution Execution
	// Observer, when non-nil, sees every inserted certificate and every own
	// header and certificate (see Observer).
	Observer Observer
}

// New constructs an engine. Call Init before feeding messages.
func New(p Params) (*Engine, error) {
	if err := p.Config.Validate(); err != nil {
		return nil, err
	}
	if p.Committee == nil || p.Scheduler == nil || p.DAG == nil || p.Batches == nil {
		return nil, fmt.Errorf("engine: missing dependency (committee/scheduler/dag/batches)")
	}
	if _, ok := p.Committee.Authority(p.Self); !ok {
		return nil, fmt.Errorf("engine: self %s not in committee", p.Self)
	}
	if p.Config.VerifySignatures && len(p.PublicKeys) != p.Committee.Size() {
		return nil, fmt.Errorf("engine: have %d public keys for %d validators", len(p.PublicKeys), p.Committee.Size())
	}
	// Seed the genesis round immediately (one implicit certificate per
	// validator, known to all without communication), so messages that
	// arrive before Init — possible on real-runtime nodes whose transports
	// come up first — can never observe a DAG missing genesis parents.
	for _, id := range p.Committee.ValidatorIDs() {
		v := dag.NewVertex(0, id, nil, nil, 0)
		if err := p.DAG.Insert(v); err != nil {
			return nil, fmt.Errorf("engine: inserting genesis vertex: %w", err)
		}
	}
	if p.Config.MaxPendingCerts == 0 {
		p.Config.MaxPendingCerts = DefaultConfig().MaxPendingCerts
	}
	sink := p.Commits
	if sink == nil {
		sink = discardSink{}
	}
	observer := p.Observer
	if observer == nil {
		observer = nopObserver{}
	}
	e := &Engine{
		config:           p.Config,
		committee:        p.Committee,
		self:             p.Self,
		keys:             p.Keys,
		pubKeys:          p.PublicKeys,
		batches:          p.Batches,
		dagStore:         p.DAG,
		committer:        bullshark.New(p.Committee, p.DAG, p.Scheduler),
		scheduler:        p.Scheduler,
		sink:             sink,
		observer:         observer,
		exec:             p.Execution,
		votes:            make([]crypto.Signature, p.Committee.Size()),
		voteStake:        types.NewStakeAccumulator(p.Committee),
		pendingCerts:     make(map[types.Digest]*Certificate),
		pendingByMissing: make(map[types.Digest][]types.Digest),
		requested:        make(map[types.Digest]bool),
		pendingRounds:    make(map[types.Round]int),
	}
	if e.exec != nil && e.exec.CheckpointCerts() {
		e.ckptAcc = checkpoint.NewAccumulator(p.Committee)
	}
	if ff, ok := p.Scheduler.(scheduleFastForwarder); ok {
		e.schedFastForward = ff
	}
	if sr, ok := p.Scheduler.(leader.StateRestorer); ok {
		e.schedRestore = sr
	}
	if p.Config.PipelineDepth > 0 {
		e.stage = newOrderStage(e.committer, e.scheduler, sink, p.Self, p.Config.PipelineDepth,
			p.Config.GCEvery, p.Config.GCDepth)
	}
	return e, nil
}

// Flush blocks until every certificate inserted so far has been ordered and
// its commits delivered to the sink. No-op in serial mode, where ordering is
// inline. Safe to call from any goroutine except the order stage's own sink.
func (e *Engine) Flush() {
	if e.stage != nil {
		e.stage.Flush()
	}
}

// Close stops the order stage after draining already-queued certificates.
// Serial engines need no Close (no goroutines); calling it is still safe.
// The engine must not be fed messages after Close.
func (e *Engine) Close() {
	if e.stage != nil {
		e.stage.Close()
	}
}

// PipelineBacklog returns the order stage's current queue depth (0 when the
// pipeline is disabled). Safe for concurrent use; exported as the
// hammerhead_pipeline_depth gauge.
func (e *Engine) PipelineBacklog() int {
	if e.stage == nil {
		return 0
	}
	return e.stage.depth()
}

// SyncBacklog reports the sizes of the causal-sync pending maps: certificates
// waiting for parents, distinct missing parent digests, and outstanding
// requests. Byzantine headers with fabricated parent edges park entries here;
// garbage collection bounds all three (see TestPendingStateGarbageCollected).
func (e *Engine) SyncBacklog() (pendingCerts, missingParents, requested int) {
	return len(e.pendingCerts), len(e.pendingByMissing), len(e.requested)
}

// leaderAt resolves the leader schedule. In pipelined mode the order stage
// mutates the schedule on commit, so reads from the ingest stage take its
// lock; the transient staleness between an anchor being ordered and the
// switch becoming visible here affects only leader-wait pacing, never commit
// ordering (the order stage resolves leaders under its own lock).
func (e *Engine) leaderAt(round types.Round) types.ValidatorID {
	if e.stage != nil {
		e.stage.mu.Lock()
		defer e.stage.mu.Unlock()
	}
	return e.scheduler.LeaderAt(round)
}

// lastOrderedRound reads the committer's ordering floor, locking against the
// order stage when pipelined.
func (e *Engine) lastOrderedRound() types.Round {
	if e.stage != nil {
		e.stage.mu.Lock()
		defer e.stage.mu.Unlock()
	}
	return e.committer.LastOrderedRound()
}

// CommitterStats returns a copy of the committer counters, safe to call
// while the order stage runs.
func (e *Engine) CommitterStats() bullshark.Stats {
	if e.stage != nil {
		e.stage.mu.Lock()
		defer e.stage.mu.Unlock()
	}
	return e.committer.Stats()
}

// Init goes live: unlocks proposing (gated until now so that recovery can
// replay certificates quietly first) and proposes the next header.
func (e *Engine) Init(nowNanos int64) *Output {
	out := &Output{}
	e.ownCertFormed = true
	e.roundDelayOK = true
	e.tryAdvance(nowNanos, out)
	// The progress watchdog runs for the engine's lifetime: a committee can
	// wedge at one round if certificate broadcasts are lost (nothing later
	// ever references them), so a stalled engine pulls the frontier.
	out.timer(Timer{Kind: TimerProgress, Delay: 2 * e.config.ResyncInterval})
	return out
}

// Round returns the round of the engine's latest proposal.
func (e *Engine) Round() types.Round { return e.round }

// CurrentProposal returns the header the engine most recently built for its
// own slot (nil when none, or when the slot was adopted/forfeited during
// recovery). Engine-goroutine only. Recovery (validator.Recover) uses it to
// record a proposal built while the record was still suppressed (the initial
// proposal of a fresh boot).
func (e *Engine) CurrentProposal() *Header { return e.curHeader }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	if e.stage != nil {
		// Pipelined, the order stage prunes, and counts on its own goroutine.
		st.OwnVerticesPrunedUnordered = e.stage.ownPrunedVertices.Load()
		st.OwnTxPrunedUnordered = e.stage.ownPrunedTxs.Load()
	}
	return st
}

// Committer exposes the underlying committer (read-only use: stats, last
// ordered round). With the pipeline enabled the order stage mutates the
// committer concurrently — use CommitterStats/lastOrderedRound-style locked
// accessors instead, or call only after Close/Flush.
func (e *Engine) Committer() *bullshark.Committer { return e.committer }

// Scheduler exposes the leader scheduler.
func (e *Engine) Scheduler() leader.Scheduler { return e.scheduler }

// DAG exposes the vertex store (read-only use).
func (e *Engine) DAG() *dag.DAG { return e.dagStore }

// OnMessage processes one protocol message. It does not rely on whoever built
// msg for a non-nil payload: the channel transport delivers Messages no
// decoder ever saw.
func (e *Engine) OnMessage(from types.ValidatorID, msg *Message, nowNanos int64) *Output {
	out := &Output{}
	if _, ok := e.committee.Authority(from); !ok {
		e.stats.InvalidMessages++
		return out
	}
	switch msg.Kind {
	case KindHeader:
		e.onHeader(from, msg.Header, out)
	case KindVote:
		e.onVote(msg.Vote, nowNanos, out)
	case KindCertificate:
		e.onCertificate(msg.Cert, nowNanos, out)
	case KindCertRequest:
		e.onCertRequest(from, msg.CertRequest, out)
	case KindCertResponse:
		if msg.CertResponse == nil {
			e.stats.InvalidMessages++
			return out
		}
		for _, c := range msg.CertResponse.Certs {
			e.onCertificate(c, nowNanos, out)
		}
		e.stats.SyncResponses++
		// Batched catch-up: if we are still far behind after this response,
		// immediately pull the next range from the same peer. Each
		// round-trip advances MaxSyncBatch certificates, so a recovering
		// validator outpaces the live frontier instead of crawling one
		// round per resync interval.
		e.maybeRangeSync(from, nowNanos, out)
	case KindRoundRequest:
		e.onRoundRequest(from, msg.RoundRequest, out)
	case KindSnapshotRequest:
		e.onSnapshotRequest(from, msg.SnapshotRequest, out)
	case KindSnapshotResponse:
		e.onSnapshotResponse(from, msg.SnapshotResponse, nowNanos, out)
	case KindRejoinRequest:
		e.onRejoinRequest(from, msg.RejoinRequest, out)
	case KindRejoinResponse:
		e.onRejoinResponse(from, msg.RejoinResponse, nowNanos, out)
	case KindCheckpointSig:
		e.onCheckpointSig(from, msg.CheckpointSig, out)
	case KindCheckpointCert:
		e.onPeerCheckpointCert(msg.CheckpointCert)
	default:
		e.stats.InvalidMessages++
	}
	return out
}

// OnTimer processes a timer callback previously requested via Output.Timers.
func (e *Engine) OnTimer(t Timer, nowNanos int64) *Output {
	out := &Output{}
	switch t.Kind {
	case TimerLeader:
		if e.round == types.Round(t.Round) {
			e.leaderTimedOut = e.round
			e.stats.LeaderTimeouts++
			e.tryAdvance(nowNanos, out)
		}
	case TimerRoundDelay:
		if e.round == types.Round(t.Round) {
			e.roundDelayOK = true
			e.tryAdvance(nowNanos, out)
		}
	case TimerResync:
		e.resyncArmed = false
		e.resync(out)
	case TimerHeaderRetry:
		if e.round == types.Round(t.Round) && !e.ownCertFormed && e.curHeader != nil {
			out.broadcast(&Message{Kind: KindHeader, Header: e.curHeader})
			out.timer(Timer{Kind: TimerHeaderRetry, Round: t.Round, Delay: e.config.ResyncInterval})
		}
	case TimerProgress:
		if e.round == e.progressLastRound {
			// No progress since the last check: pull the certificate
			// frontier from a rotating peer.
			n := uint32(e.committee.Size())
			if n > 1 {
				e.progressTarget++
				target := types.ValidatorID(e.progressTarget % n)
				if target == e.self {
					e.progressTarget++
					target = types.ValidatorID(e.progressTarget % n)
				}
				e.stats.SyncRequests++
				from := e.lastOrderedRound()
				out.unicast(target, &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: from}})
				if e.beyondGCHorizon() {
					// The frontier is unreachable by certificate sync; pull
					// a checkpoint instead of waiting on certs nobody holds.
					e.maybeSnapshotSync(target, nowNanos, out)
				}
			}
		}
		e.progressLastRound = e.round
		out.timer(Timer{Kind: TimerProgress, Delay: 2 * e.config.ResyncInterval})
	case TimerSnapshot:
		e.onSnapshotTimer(nowNanos, out)
	case TimerRejoin:
		e.onRejoinTimer(nowNanos, out)
	}
	return out
}

// ---- header / vote / certificate handling ----

func (e *Engine) onHeader(from types.ValidatorID, h *Header, out *Output) {
	if h == nil || h.Source != from || h.Round < 1 || int(h.Source) >= e.committee.Size() {
		// The last: a source outside the committee has no slot (and no key).
		e.stats.InvalidMessages++
		return
	}
	digest := h.Digest()
	if e.config.VerifySignatures && !h.SigVerified() &&
		!e.keys.Scheme.Verify(e.pubKeys[h.Source], digest[:], h.Signature) {
		e.stats.InvalidMessages++
		return
	}
	rs := e.slots(h.Round)
	if rs == nil || (rs.voted.Has(h.Source) && rs.votedFor[h.Source] != digest) {
		// No slots: below the floor the header's certificate could never
		// insert, far above it the record would outlive every floor for hours
		// (a laggard within the bound still votes for the live round).
		// Otherwise a conflicting header for an already-voted slot:
		// equivocation. Crash-fault deployments never hit this; refuse the
		// second vote.
		e.stats.InvalidMessages++
		return
	}
	rs.voted.Add(h.Source)
	rs.votedFor[h.Source] = digest
	sig, err := e.keys.Sign(digest[:])
	if err != nil {
		e.stats.InvalidMessages++
		return
	}
	e.stats.VotesSent++
	out.unicast(h.Source, &Message{Kind: KindVote, Vote: &Vote{
		HeaderDigest: digest,
		Round:        h.Round,
		Origin:       h.Source,
		Voter:        e.self,
		Signature:    sig,
	}})
}

func (e *Engine) onVote(v *Vote, nowNanos int64, out *Output) {
	if v == nil || v.Origin != e.self || e.curHeader == nil {
		return
	}
	if v.Round != e.round || v.HeaderDigest != e.curHeaderDigest || e.ownCertFormed {
		return // stale or already certified
	}
	if int(v.Voter) >= len(e.votes) {
		// Voter outside the committee (malformed or malicious): no slot, no key.
		e.stats.InvalidMessages++
		return
	}
	if e.config.VerifySignatures && !v.SigVerified() &&
		!e.keys.Scheme.Verify(e.pubKeys[v.Voter], v.HeaderDigest[:], v.Signature) {
		e.stats.InvalidMessages++
		return
	}
	if e.voteStake.Has(v.Voter) {
		return
	}
	e.votes[v.Voter] = v.Signature
	e.voteStake.Add(v.Voter)
	if e.voteStake.ReachedQuorum() {
		e.certifyOwn(nowNanos, out)
	}
}

// certifyOwn assembles the certificate of the current own header from the
// votes gathered (a quorum, the caller checked), broadcasts and ingests it.
func (e *Engine) certifyOwn(nowNanos int64, out *Output) {
	cert := &Certificate{Header: *e.curHeader, Votes: make([]VoteSig, 0, e.voteStake.Count())}
	for i, sig := range e.votes {
		if id := types.ValidatorID(i); e.voteStake.Has(id) {
			cert.Votes = append(cert.Votes, VoteSig{Voter: id, Signature: sig})
		}
	}
	e.ownCertFormed = true
	e.stats.CertsFormed++
	e.observer.Certified(cert)
	out.broadcast(&Message{Kind: KindCertificate, Cert: cert})
	e.onCertificate(cert, nowNanos, out)
}

func (e *Engine) onCertificate(c *Certificate, nowNanos int64, out *Output) {
	if c == nil {
		return
	}
	if c.Header.Round < e.rounds.Floor() {
		// Below the GC floor: the DAG already pruned this round, so the
		// certificate can never insert. Dropping it here keeps stale sync
		// responses and Byzantine backfill out of the pending maps.
		return
	}
	digest := c.Digest()
	if e.inDAG(c) {
		return
	}
	if _, pend := e.pendingCerts[digest]; pend {
		return
	}
	if !e.validCertificate(c) {
		e.stats.InvalidMessages++
		return
	}
	e.stats.CertsReceived++

	if missing := e.insertCert(c, nowNanos, out); len(missing) > 0 {
		e.stats.CertsPended++
		if len(e.pendingCerts) >= e.config.MaxPendingCerts {
			e.evictPending()
		}
		e.addPending(digest, c)
		e.maybeRangeSync(c.Header.Source, nowNanos, out)
		var toRequest []types.Digest
		for _, m := range missing {
			e.pendingByMissing[m] = append(e.pendingByMissing[m], digest)
			if !e.requested[m] {
				e.requested[m] = true
				toRequest = append(toRequest, m)
			}
		}
		if len(toRequest) > 0 {
			if target, ok := e.syncPeer(c.Header.Source); ok {
				e.requestCerts(target, toRequest, out)
			}
		}
		if !e.resyncArmed {
			e.resyncArmed = true
			out.timer(Timer{Kind: TimerResync, Delay: e.config.ResyncInterval})
		}
		return
	}
	e.tryAdvance(nowNanos, out)
}

// inDAG reports whether the DAG already holds the certificate's vertex: its
// (round, source) slot is occupied by the same digest.
func (e *Engine) inDAG(c *Certificate) bool {
	v, ok := e.dagStore.Get(c.Header.Round, c.Header.Source)
	return ok && v.Digest() == c.Digest()
}

// syncPeer picks the unicast target for sync traffic: the hint when it is a
// usable peer, otherwise the next validator after self. ok is false when the
// committee has no other member — a lone validator (and, before this guard,
// digest-rotation corner cases on tiny committees) must never send sync
// requests to itself.
func (e *Engine) syncPeer(hint types.ValidatorID) (types.ValidatorID, bool) {
	n := uint32(e.committee.Size())
	if n < 2 {
		return 0, false
	}
	if hint == e.self || uint32(hint) >= n {
		hint = types.ValidatorID((uint32(e.self) + 1) % n)
	}
	return hint, true
}

// addPending records a certificate waiting for parents, maintaining the
// per-round counts behind the maxPendingRound high-water mark.
func (e *Engine) addPending(digest types.Digest, c *Certificate) {
	if _, ok := e.pendingCerts[digest]; ok {
		return
	}
	e.pendingCerts[digest] = c
	e.pendingRounds[c.Header.Round]++
	if c.Header.Round > e.maxPendingRound {
		e.maxPendingRound = c.Header.Round
	}
}

// removePending forgets a pending certificate and refreshes the high-water
// mark. A stale mark would keep maybeRangeSync requesting (and peers
// serving MaxSyncBatch-cert responses for) history the node already has —
// for the node's lifetime, if a single ghost certificate at an absurd round
// was evicted or pruned. The refresh only walks the per-round count keys,
// and only when the highest round just emptied.
func (e *Engine) removePending(digest types.Digest) {
	c, ok := e.pendingCerts[digest]
	if !ok {
		return
	}
	delete(e.pendingCerts, digest)
	r := c.Header.Round
	if n := e.pendingRounds[r] - 1; n > 0 {
		e.pendingRounds[r] = n
		return
	}
	delete(e.pendingRounds, r)
	if r == e.maxPendingRound {
		e.maxPendingRound = 0
		for pr := range e.pendingRounds {
			if pr > e.maxPendingRound {
				e.maxPendingRound = pr
			}
		}
	}
}

// evictPending drops one pending certificate, preferring the one furthest
// above the DAG frontier among a bounded sample (fabricated-parent spam
// sits at arbitrary high rounds, while genuine catch-up certificates
// cluster near it). Sampling keeps the per-message cost of a sustained
// flood O(sample + edges + distinct pending rounds) instead of
// O(MaxPendingCerts) — eviction runs on the ingest path, so a full scan per
// attacker message would itself be the DoS lever this bound exists to
// remove.
func (e *Engine) evictPending() {
	const sample = 32
	var victim types.Digest
	var victimCert *Certificate
	seen := 0
	for d, c := range e.pendingCerts {
		if victimCert == nil || c.Header.Round > victimCert.Header.Round {
			victim, victimCert = d, c
		}
		if seen++; seen >= sample {
			break
		}
	}
	if victimCert == nil {
		return
	}
	e.dropPending(victim, victimCert)
}

// dropPending removes one pending certificate and every index entry that
// only it justifies, in O(edges + distinct pending rounds) — the victim's
// edges are exactly the keys under which it can appear in pendingByMissing.
func (e *Engine) dropPending(digest types.Digest, cert *Certificate) {
	e.removePending(digest)
	for _, m := range cert.Header.Edges {
		waiters, ok := e.pendingByMissing[m]
		if !ok {
			continue
		}
		kept := waiters[:0]
		for _, w := range waiters {
			if w != digest {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(e.pendingByMissing, m)
			delete(e.requested, m)
		} else {
			e.pendingByMissing[m] = kept
		}
	}
}

// sweepPendingIndexes drops pendingByMissing/requested entries that no
// still-pending certificate justifies. Called after bulk removals (GC
// pruning); single-victim removals use dropPending.
func (e *Engine) sweepPendingIndexes() {
	for m, waiters := range e.pendingByMissing {
		kept := waiters[:0]
		for _, w := range waiters {
			if _, ok := e.pendingCerts[w]; ok {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(e.pendingByMissing, m)
		} else {
			e.pendingByMissing[m] = kept
		}
	}
	for m := range e.requested {
		if _, ok := e.pendingByMissing[m]; !ok {
			delete(e.requested, m)
		}
	}
}

// validCertificate checks quorum voting stake and, when enabled, signatures.
// A certificate the pre-verify stage already checked carries its mark and
// skips the signature loop.
func (e *Engine) validCertificate(c *Certificate) bool {
	if c.Header.Round < 1 {
		return false
	}
	if _, ok := e.committee.Authority(c.Header.Source); !ok {
		return false
	}
	if !e.config.VerifySignatures || c.SigVerified() {
		acc := types.NewStakeAccumulator(e.committee)
		for _, vs := range c.Votes {
			acc.Add(vs.Voter)
		}
		return acc.ReachedQuorum()
	}
	kept, ok := verifyQuorumVotes(e.keys.Scheme, e.committee, e.pubKeys, c)
	if !ok {
		return false
	}
	// Strip the votes that failed (same as the pre-verify path): the
	// certificate is retained in its slot and served to syncing peers, who
	// must not re-receive forged votes. The quorum is established; later
	// re-checks (cascaded pending inserts, duplicate deliveries) can skip
	// the public-key work.
	c.Votes = kept
	c.MarkSigVerified()
	return true
}

// insertCert inserts a certificate into the DAG, hands its vertex to the
// order stage (or runs the committer inline when the pipeline is disabled),
// and cascades any pending certificates this unblocked. When c itself is
// blocked it returns the parents c misses and leaves the buffering to the
// caller; a cascaded certificate that is still blocked (it missed several
// parents) goes back to pending on its own.
//
// The DAG's Insert is the only place parents are resolved: it answers
// "all present?" and inserts in the same pass over the edges. Edges always
// point exactly one round back, so a certificate whose parent round lies
// below the DAG's pruned floor is vacuously satisfied there — the insertion
// path after a snapshot install, where the first post-checkpoint round
// re-enters the DAG without its (snapshot-covered) parents.
//
// This is stage 1 of the pipeline: with PipelineDepth > 0 it returns to
// message processing as soon as the vertex is queued, so ingest throughput is
// no longer bounded by the committer's ordering walk.
func (e *Engine) insertCert(c *Certificate, nowNanos int64, out *Output) (missing []types.Digest) {
	queue := []*Certificate{c}
	for len(queue) > 0 {
		cert := queue[0]
		queue = queue[1:]
		digest := cert.Digest()
		if e.inDAG(cert) {
			continue
		}
		vertex := cert.Header.Vertex()
		if err := e.dagStore.Insert(vertex); err != nil {
			var blocked *dag.MissingParentsError
			switch {
			case errors.As(err, &blocked):
				if cert == c {
					return blocked.Missing
				}
				e.addPending(digest, cert)
			case !errors.Is(err, dag.ErrPruned):
				// In pipelined mode the order stage's DAG floor can run ahead
				// of the ingest stage's certFloor; an honest straggler between
				// the two is merely below retention, not protocol-invalid.
				e.stats.InvalidMessages++
			}
			continue
		}
		if rs := e.slots(cert.Header.Round); rs != nil {
			rs.certs[cert.Header.Source] = cert
		}
		e.removePending(digest)
		delete(e.requested, digest)
		// Before the vertex can reach the committer (see Observer.Inserted).
		e.observer.Inserted(cert)

		if e.stage != nil {
			// Stage 2 orders asynchronously; the ingest stage prunes its own
			// maps whenever the stage's published retention floor advanced.
			e.stage.submit(vertex)
			e.insertsSinceGC++
			if e.insertsSinceGC >= e.config.GCEvery {
				e.insertsSinceGC = 0
				e.pruneProtocolState(types.Round(e.stage.floor()))
			}
		} else {
			commits := e.committer.ProcessVertex(vertex)
			for _, sub := range commits {
				e.sink.DeliverCommit(sub)
			}
			if len(commits) > 0 {
				e.commitsSinceGC += uint64(len(commits))
				if e.commitsSinceGC >= e.config.GCEvery {
					e.commitsSinceGC = 0
					e.garbageCollect()
				}
			}
		}

		// Unblock children waiting on this digest.
		for _, childDigest := range e.pendingByMissing[digest] {
			if child, ok := e.pendingCerts[childDigest]; ok {
				e.removePending(childDigest)
				queue = append(queue, child)
			}
		}
		delete(e.pendingByMissing, digest)
	}
	return nil
}

// onCertRequest serves the retained certificates among the first MaxSyncBatch
// digests of a request, in request order. The rest go unread: a digest is
// resolved by a scan of the DAG's slots, so the cap is what bounds the work a
// peer's request can buy, however many digests its frame carries. The
// engine's own requests never carry more (requestCerts).
func (e *Engine) onCertRequest(from types.ValidatorID, req *CertRequest, out *Output) {
	if req == nil {
		return
	}
	resp := &CertResponse{}
	for _, d := range req.Digests[:min(len(req.Digests), e.config.MaxSyncBatch)] {
		// The DAG names the slot; the certificate is in ours.
		if v, ok := e.dagStore.ByDigest(d); ok {
			if c := e.certAt(v.Round, v.Source); c != nil {
				resp.Certs = append(resp.Certs, c)
			}
		}
	}
	if len(resp.Certs) > 0 {
		out.unicast(from, &Message{Kind: KindCertResponse, CertResponse: resp})
	}
}

// requestCerts asks target for the certificates of digests, in requests of
// at most MaxSyncBatch digests, all of which a peer's onCertRequest reads.
func (e *Engine) requestCerts(target types.ValidatorID, digests []types.Digest, out *Output) {
	for len(digests) > 0 {
		k := min(len(digests), e.config.MaxSyncBatch)
		e.stats.SyncRequests++
		out.unicast(target, &Message{Kind: KindCertRequest, CertRequest: &CertRequest{Digests: digests[:k:k]}})
		digests = digests[k:]
	}
}

// maybeRangeSync pulls a batch of certificates by round when the pending
// frontier is far above our DAG (one-digest-at-a-time parent chasing cannot
// outrun a live committee). Rate-limited: re-request only after our frontier
// moved or the resync interval elapsed.
func (e *Engine) maybeRangeSync(target types.ValidatorID, nowNanos int64, out *Output) {
	const gapThreshold = 8
	// Right after a snapshot install the DAG is empty above the new floor;
	// range sync must pull from the boundary, not the stale pre-install
	// frontier.
	floor := max(e.dagStore.HighestRound(), e.rounds.Floor())
	if e.maxPendingRound <= floor+gapThreshold {
		return
	}
	if e.beyondGCHorizon() && e.snapshotSyncEnabled() {
		// Certificate sync cannot close this gap (peers pruned the history);
		// fetch a checkpoint instead of crawling an unreachable range.
		e.maybeSnapshotSync(target, nowNanos, out)
		return
	}
	if floor == e.lastRangeReqFloor &&
		nowNanos-e.lastRangeReqNanos < e.config.ResyncInterval.Nanoseconds() {
		return
	}
	target, ok := e.syncPeer(target)
	if !ok {
		return
	}
	e.lastRangeReqFloor = floor
	e.lastRangeReqNanos = nowNanos
	e.stats.SyncRequests++
	out.unicast(target, &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: floor}})
}

// onRoundRequest serves the certificate frontier (see certRange).
func (e *Engine) onRoundRequest(from types.ValidatorID, req *RoundRequest, out *Output) {
	if req == nil || from == e.self {
		return
	}
	if certs := e.certRange(req.FromRound); len(certs) > 0 {
		out.unicast(from, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: certs}})
	}
}

// certRange collects every retained certificate from the given round on,
// oldest rounds first so the requester can insert parents-first, in source
// order within a round, capped at MaxSyncBatch: a walk over the slots, costing
// the rounds scanned and the batch. Shared by round requests and rejoin
// responses.
func (e *Engine) certRange(start types.Round) []*Certificate {
	certs := make([]*Certificate, 0, e.config.MaxSyncBatch)
	// Rounds below the floor are gone; every retained certificate is a DAG
	// vertex, so none sits above the DAG's highest round.
	for r, top := max(start, e.rounds.Floor()), e.dagStore.HighestRound(); r <= top; r++ {
		rs := e.rounds.At(r)
		if rs == nil {
			continue
		}
		for _, c := range rs.certs {
			if c == nil {
				continue
			}
			if len(certs) == e.config.MaxSyncBatch {
				return certs
			}
			certs = append(certs, c)
		}
	}
	return certs
}

// certAt returns the retained certificate of (round, source), nil if none.
func (e *Engine) certAt(round types.Round, source types.ValidatorID) *Certificate {
	if rs := e.rounds.At(round); rs != nil && int(source) < len(rs.certs) {
		return rs.certs[source]
	}
	return nil
}

// slots returns round's slot arrays, made on first use, or nil for a round
// outside the window: below its floor, where all is pruned, or at least
// dag.MaxRetainedRounds above it, where the DAG takes no vertex either.
func (e *Engine) slots(round types.Round) *roundSlots {
	if floor := e.rounds.Floor(); round < floor || round-floor >= dag.MaxRetainedRounds {
		return nil
	}
	rs := e.rounds.At(round)
	if rs == nil {
		n := e.committee.Size()
		rs = &roundSlots{types.NewValidatorSet(n), make([]types.Digest, n), make([]*Certificate, n)}
		e.rounds.Set(round, rs)
	}
	return rs
}

// resync re-requests every still-missing parent, rotating targets across the
// committee so a crashed original source does not wedge synchronization.
func (e *Engine) resync(out *Output) {
	if len(e.pendingByMissing) == 0 {
		return
	}
	n := uint32(e.committee.Size())
	if n < 2 {
		// No peer can supply the missing parents (entries here mean corrupt
		// input); leave them to garbage collection rather than unicasting
		// requests to ourselves.
		return
	}
	digests := make([]types.Digest, 0, len(e.pendingByMissing))
	for m := range e.pendingByMissing {
		digests = append(digests, m)
	}
	// Sort for determinism (map iteration order would make simulation runs
	// unreproducible), then spread requests over peers by digest prefix so a
	// crashed original source cannot wedge synchronization.
	sort.Slice(digests, func(i, j int) bool {
		return bytes.Compare(digests[i][:], digests[j][:]) < 0
	})
	perTarget := make(map[types.ValidatorID][]types.Digest, n)
	for _, d := range digests {
		target, ok := e.syncPeer(types.ValidatorID(uint32(d[0]) % n))
		if !ok {
			return
		}
		perTarget[target] = append(perTarget[target], d)
	}
	for _, target := range e.committee.ValidatorIDs() {
		e.requestCerts(target, perTarget[target], out)
	}
	e.resyncArmed = true
	out.timer(Timer{Kind: TimerResync, Delay: e.config.ResyncInterval})
}

// ---- round advancement ----

// tryAdvance proposes the next header when the current round is complete:
// quorum of certificates, our own certificate, the pacing gate open, and —
// leaving an anchor round — the leader's certificate arrived or timed out
// (Bullshark's leader-wait, the mechanism that makes crashed leaders
// expensive for the baseline).
//
// The own certificate is waited for even when the network has moved past
// us: the next header is the only vertex that will ever reference it (peers
// have left that round), so proposing before it forms — or giving up the
// header that does reference it — cuts our vertices off from every later
// anchor's history, and their transactions never commit. A validator a few
// rounds behind therefore catches up one certified round per round trip
// (pacingOpen lets it); one that cannot certify at all falls further behind
// and takes the catch-up jump below.
func (e *Engine) tryAdvance(nowNanos int64, out *Output) {
	for {
		// Catch-up jump: when the DAG is far ahead of our proposing round
		// (post-recovery, post-partition), skip straight to the highest
		// round holding a quorum — headers for long-gone rounds are useless.
		// The gap threshold keeps ordinary jitter (a peer briefly a round or
		// two ahead) on the paced path.
		if frontier := e.dagStore.HighestRound(); frontier > e.round+4 {
			for r := frontier; r > e.round; r-- {
				if e.dagStore.HasQuorumAt(r) {
					e.resumeAt(r) // our slot in skipped rounds is forfeited
					break
				}
			}
		}
		if !e.dagStore.HasQuorumAt(e.round) {
			return
		}
		if !e.ownCertFormed {
			return
		}
		open, fullEarly := e.pacingOpen()
		if !open {
			return
		}
		behind := e.dagStore.HighestRound() > e.round
		if e.round.IsAnchorRound() && e.round > 0 && !behind && e.leaderTimedOut != e.round {
			leaderID := e.leaderAt(e.round)
			if leaderID != e.self && leaderID != types.NoValidator {
				if _, haveLeader := e.dagStore.Get(e.round, leaderID); !haveLeader {
					if e.leaderTimerArmed != e.round {
						e.leaderTimerArmed = e.round
						out.timer(Timer{Kind: TimerLeader, Round: uint64(e.round), Delay: e.config.LeaderTimeout})
					}
					return
				}
			}
		}
		if fullEarly {
			e.stats.HeadersFullEarly++
		}
		e.propose(e.round+1, nowNanos, out)
	}
}

// pacingOpen reports whether header pacing lets this validator leave its
// round, and whether only a full batch opened it. MinRoundDelay since its own
// last proposal always opens the gate. So do certificates worth f+1 stake at
// the next round: one of them is an honest validator's, which paced itself
// into that round, so following it keeps the committee's round rate at the
// floor — while a validator that fell behind re-aligns within a round trip
// instead of staying late by the same amount forever (its timer restarts from
// its own, late, proposal), until its certificates miss every next round's
// parent set. Stake of f or less ahead moves nobody: a fast or Byzantine
// minority cannot un-pace the rest.
//
// A full header's worth of transactions, carried and pending, opens it too
// once every validator's certificate at this round is in. The floor exists to
// batch, and a full batch has nothing left to wait for (Narwhal's primary
// likewise sends a header once it holds enough batches; its delay timer
// covers only a partly filled one). Under backlog a healthy committee then
// advances at certification pace, not MaxBatchTx per MinRoundDelay. It takes
// the whole round, not a quorum: a committee that left a slower validator's
// vertices behind at certification pace would soon be more than four rounds
// ahead of it, and the catch-up jump that follows cuts the chain of its own
// vertices, whose transactions then never commit. So the slowest validator
// sets the pace, and a crashed one puts everybody back on the floor. Only the
// floor is lifted: the own certificate still gates tryAdvance, the whole
// round holds an anchor round's leader, and a partly filled batch is still
// paced.
func (e *Engine) pacingOpen() (open, fullEarly bool) {
	if e.roundDelayOK || e.dagStore.RoundStake(e.round+1) >= e.committee.ValidityThreshold() {
		return true, false
	}
	full := e.dagStore.RoundStake(e.round) == e.committee.TotalStake() &&
		len(e.carried)+e.batches.Pending() >= e.config.MaxBatchTx
	return full, full
}

// abandonHeader gives up the current own header. If it has not certified it
// never will — only its origin assembles the certificate, and onVote ignores
// votes for a header that is no longer current — so its transactions move
// to the next own header and nothing is ordered twice. A header restored
// from the WAL is the exception: the process that built it may have
// certified it, so its batch is not proposed again.
func (e *Engine) abandonHeader() {
	h := e.curHeader
	e.curHeader = nil
	if h == nil || e.ownCertFormed || e.restoredHeader {
		return
	}
	e.stats.HeadersAbandoned++
	if h.Batch != nil {
		e.carried = append(e.carried, h.Batch.Transactions...)
		e.stats.TxCarried += uint64(h.Batch.Len())
	}
}

// resumeAt moves the engine to round with no header of its own outstanding
// there — the slot is forfeited, or already holds a certificate that
// survived a crash — so the next proposal is round+1 once the round completes.
func (e *Engine) resumeAt(round types.Round) {
	e.abandonHeader()
	e.round = round
	e.ownCertFormed = true
	e.roundDelayOK = true
}

// nextBatch assembles the next own header's batch: transactions carried over
// from abandoned headers first, then the mempool's, MaxBatchTx in all.
func (e *Engine) nextBatch(nowNanos int64) *types.Batch {
	n := min(len(e.carried), e.config.MaxBatchTx)
	if n == 0 {
		return e.batches.NextBatch(nowNanos, e.config.MaxBatchTx)
	}
	// Copied: the batch outlives this step inside the header, while carried
	// keeps being appended to.
	txs := append(make([]types.Transaction, 0, e.config.MaxBatchTx), e.carried[:n]...)
	e.carried = e.carried[n:]
	if room := e.config.MaxBatchTx - n; room > 0 {
		if b := e.batches.NextBatch(nowNanos, room); b != nil {
			txs = append(txs, b.Transactions...)
		}
	}
	return &types.Batch{Transactions: txs}
}

func (e *Engine) propose(round types.Round, nowNanos int64, out *Output) {
	if round <= e.proposalFloor {
		// The WAL records a header we already signed at or above this round.
		// Building a second header for an already-signed slot could
		// equivocate it (its certificate may have survived only in a peer's
		// WAL); forfeit the slot instead — the round completes from the other
		// validators' headers, and our restored header covers the high-water
		// round itself. Practically unreachable after RestoreProposal (the
		// engine resumes at or above the floor); kept as the enforcement
		// backstop.
		e.resumeAt(round)
		return
	}
	parents := e.dagStore.RoundVertices(round - 1)
	edges := make([]types.Digest, len(parents))
	for i, p := range parents {
		edges[i] = p.Digest()
	}
	header := &Header{
		Round:        round,
		Source:       e.self,
		Edges:        edges,
		Batch:        e.nextBatch(nowNanos),
		CreatedNanos: nowNanos,
	}
	digest := header.Digest()
	sig, err := e.keys.Sign(digest[:])
	if err != nil {
		// Unreachable with well-formed keys; drop the proposal (keeping its
		// batch) and let the round delay retry.
		e.stats.InvalidMessages++
		if header.Batch != nil {
			e.carried = append(e.carried, header.Batch.Transactions...)
		}
		return
	}
	header.Signature = sig

	e.adoptHeader(header, digest, sig)
	e.restoredHeader = false
	e.roundDelayOK = false
	e.stats.HeadersProposed++
	// Recorded before it can reach the wire, so a restart can re-adopt it
	// instead of equivocating the slot.
	e.observer.Proposed(header)

	out.broadcast(&Message{Kind: KindHeader, Header: header})
	out.timer(Timer{Kind: TimerRoundDelay, Round: uint64(round), Delay: e.config.MinRoundDelay})
	out.timer(Timer{Kind: TimerHeaderRetry, Round: uint64(round), Delay: e.config.ResyncInterval})

	// A lone validator committee (n=1) certifies immediately on self-vote.
	if e.voteStake.ReachedQuorum() {
		e.certifyOwn(nowNanos, out)
	}
}

// adoptHeader makes h — just built, or restored from the WAL — the current
// own header: the engine moves to its round with its own vote the only one
// gathered, and records that vote like any other it casts.
func (e *Engine) adoptHeader(h *Header, digest types.Digest, sig crypto.Signature) {
	e.round = h.Round
	e.curHeader = h
	e.curHeaderDigest = digest
	clear(e.votes)
	e.voteStake.Reset()
	e.votes[e.self] = sig
	e.voteStake.Add(e.self)
	e.ownCertFormed = false
	// Outside the window no header of the round can certify here: no record.
	if rs := e.slots(h.Round); rs != nil {
		rs.voted.Add(e.self)
		rs.votedFor[e.self] = digest
	}
}

// garbageCollect prunes DAG rounds, certificates and vote records no longer
// needed by the committer or the scheduler's score scans. Serial mode only:
// in pipelined mode the order stage prunes the committer and DAG itself and
// the ingest stage calls pruneProtocolState with the stage's published floor.
func (e *Engine) garbageCollect() {
	floor := e.committer.LastOrderedRound()
	if mr, ok := e.scheduler.(minRetainer); ok {
		if m := mr.MinRetainedRound(); m < floor {
			floor = m
		}
	}
	if floor <= types.Round(e.config.GCDepth) {
		return
	}
	floor -= types.Round(e.config.GCDepth)
	vertices, txs := ownPayload(e.committer.Prune(floor), e.self)
	e.stats.OwnVerticesPrunedUnordered += vertices
	e.stats.OwnTxPrunedUnordered += txs
	e.pruneProtocolState(floor)
}

// ownPayload counts self's vertices among vs and the transactions in them.
func ownPayload(vs []*dag.Vertex, self types.ValidatorID) (vertices, txs uint64) {
	for _, v := range vs {
		if v.Source == self {
			vertices++
			if v.Batch != nil {
				txs += uint64(v.Batch.Len())
			}
		}
	}
	return vertices, txs
}

// pruneProtocolState drops every ingest-owned record below floor: the votes
// cast and certificates retained there (one slide of the window) and —
// crucially — the causal-sync pending state. Pending certificates
// below the floor can never insert (the DAG refuses pruned rounds), so
// without this prune a Byzantine validator certifying headers with
// fabricated parent edges (voters never check that edges resolve) would grow
// pendingCerts/pendingByMissing/requested without bound.
func (e *Engine) pruneProtocolState(floor types.Round) {
	if floor <= e.rounds.Floor() {
		return
	}
	e.rounds.DropBelow(floor)
	pruned := false
	for d, c := range e.pendingCerts {
		if c.Header.Round < floor {
			e.removePending(d)
			pruned = true
		}
	}
	if pruned {
		e.sweepPendingIndexes()
	}
}
