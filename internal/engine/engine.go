package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

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
// gateway implement it, and so does the simulator, whose validators write
// the node's own log inline. Every method runs on the engine goroutine, in
// the order the events happen.
type Observer interface {
	// Inserted sees every certificate accepted into the DAG, in insertion
	// (parents-first) order, strictly BEFORE its vertex can contribute to any
	// commit delivered through the CommitSink: the committer sees the vertex
	// only after Inserted returns. A runtime that logs certificates here and
	// gates commit delivery on the log's progress keeps every commit it hands
	// to execution re-derivable from the log.
	Inserted(*Certificate)
	// Proposed sees every header this validator signs and proposes, before
	// its broadcast is queued, and reports whether the header's record is
	// durable already. It must not wait for the write: the header goes out
	// at once, and the engine assembles its certificate only once the record
	// is durable — at once if Proposed returned true (a runtime that writes
	// inline, or keeps no record), else when the runtime calls
	// OnProposalDurable. The
	// recorded header is the voted-round high-water mark a restart restores
	// (RestoreProposal). A header whose record a crash lost was never
	// certified and never can be: only its origin assembles its certificate,
	// from votes unicast to the origin alone, and they died with the
	// process. A second header for that slot after the restart yields at
	// most one certificate, since the peers that voted for the first refuse
	// it. So durable before certified keeps at most one certificate per slot.
	Proposed(*Header) (durable bool)
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
func (nopObserver) Proposed(*Header) bool  { return true }
func (nopObserver) Certified(*Certificate) {}

func (nopObserver) CheckpointCertified(*checkpoint.Certificate) {}

// Unicast is a message addressed to one validator.
type Unicast struct {
	To  types.ValidatorID
	Msg *Message
}

// CommitSink receives ordered sub-DAGs from the engine. Runtimes register a
// sink at construction and the committer pushes each commit into it from the
// engine goroutine, inside the step that inserted the vertex completing it,
// strictly in commit-index order. A sink that blocks blocks the engine.
type CommitSink interface {
	DeliverCommit(sub bullshark.CommittedSubDAG)
}

// CommitSinkFunc adapts a function to the CommitSink interface.
type CommitSinkFunc func(sub bullshark.CommittedSubDAG)

// DeliverCommit implements CommitSink.
func (f CommitSinkFunc) DeliverCommit(sub bullshark.CommittedSubDAG) { f(sub) }

// discardSink drops commits; used when no sink is configured (experiments
// that only read counters).
type discardSink struct{}

func (discardSink) DeliverCommit(bullshark.CommittedSubDAG) {}

// Output collects everything one engine step wants the runtime to do.
// Runtimes must dispatch Unicasts/Broadcasts and arm Timers, in any order
// (the engine assumes nothing about scheduling). Commits are NOT part of the
// output: they are delivered within the step through the CommitSink
// registered at construction.
type Output struct {
	Unicasts   []Unicast
	Broadcasts []*Message
	Timers     []Timer
}

// unicast and broadcast seal msg (see Message.seal): once out of the engine,
// a message is only read.
func (o *Output) unicast(to types.ValidatorID, msg *Message) {
	msg.seal()
	o.Unicasts = append(o.Unicasts, Unicast{To: to, Msg: msg})
}

func (o *Output) broadcast(msg *Message) {
	msg.seal()
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
	// Crash-rejoin handshake counters: rejoin pulls broadcast (first attempt
	// and retries), handshakes completed.
	RejoinRequests   uint64
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
	// Own headers proposed because a whole round opened the pacing gate while
	// neither MinRoundDelay, the period timer nor the f+1 rule had (see
	// pacingOpen): headers a whole round ≡ 1, 2 or 3 (mod 4) sent out at once,
	// three per period, and headers a full batch sent out. A header that is
	// both counts as whole.
	HeadersWholeEarly uint64
	HeadersFullEarly  uint64
	// Own certified vertices dropped below the pruning floor without ever
	// having been ordered, and the transactions in them: acknowledged writes
	// that will never commit. Peers reference a vertex only while they are in
	// the next round; after that only its producer's next vertex does, and
	// the catch-up jump of a validator more than five rounds behind (or one
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
	// pending[source] is a certificate of (round, source) that arrived before
	// its parents and waits for them; nil until one pends in the round.
	pending []*Certificate
}

// Engine is the per-validator protocol state machine. All methods must be
// called from a single goroutine (or the simulator's event loop); time is
// passed in explicitly so simulated and wall-clock runs share every line of
// protocol logic.
//
// Per-round state — the vote cast at each (round, origin), the certificate
// retained for each (round, source), the certificate of (round, source)
// waiting for its parents — is slot-addressed like the DAG's rounds:
// one types.RoundWindow of arrays indexed by ValidatorID, whose floor is the
// pruning floor, so a lookup is two array steps and pruning one DropBelow. It
// pays a pointer per round it spans and a roundSlots per round voted at;
// onHeader votes only below floor + dag.MaxRetainedRounds, the DAG's own
// bound, so that is the most a committee member's headers can make it span.
// The votes gathered for the current own header are a slot array as well.
type Engine struct {
	config    Config
	committee *types.Committee
	self      types.ValidatorID
	keys      crypto.KeyPair
	pubKeys   []crypto.PublicKey
	// prever is the validator's pre-verify stage and known its table of
	// signatures already verified or cast, which the engine adds its own
	// votes to; both nil without Config.VerifySignatures.
	prever  *PreVerifier
	known   *knownSigs
	batches BatchProvider

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
	// exec is the execution layer: it serves local checkpoints to peers,
	// installs fetched ones and stores checkpoint certificates. snapFetch is
	// the active snapshot download.
	exec      Execution
	snapFetch snapFetch
	// rejoin gathers the crash-rejoin handshake's quorum of replies; nil
	// when the engine is not rejoining.
	rejoin *types.StakeAccumulator
	// Checkpoint certification (nil/zero unless the execution layer
	// certifies checkpoints): ckptAcc assembles quorum certificates from
	// gossiped signature shares; ckptDelivered is the highest commit seq
	// handed to the execution layer (dedupes peer cert broadcasts, which can
	// race the local quorum).
	ckptAcc       *checkpoint.Accumulator
	ckptDelivered uint64

	round           types.Round
	curHeader       *Header
	curHeaderDigest types.Digest
	// carried holds the transactions of own headers abandoned before they
	// certified; the next own headers take them ahead of the mempool's, so a
	// batch leaves the engine only inside a certificate.
	carried []types.Transaction
	// carriedLen is len(carried), for Carried's callers on other goroutines.
	carriedLen atomic.Int64
	// restoredHeader marks curHeader as re-adopted from the WAL rather than
	// built by this process (see abandonHeader).
	restoredHeader bool
	// votes[voter] is voter's signature over curHeader, for the voters
	// voteStake has counted; both are reset per own header.
	votes         []crypto.Signature
	voteStake     *types.StakeAccumulator
	ownCertFormed bool
	// ownDurable: curHeader's record is durable (Observer.Proposed,
	// OnProposalDurable), so its certificate may form.
	ownDurable   bool
	roundDelayOK bool
	// periodRound is the round ≡ 0 (mod 4) whose gate the period timer holds,
	// armed when this validator held headers worth f+1 stake of the batch
	// round three below it (0: none); periodDelayOK: the timer fired (see
	// startPeriod and pacingOpen).
	periodRound   types.Round
	periodDelayOK bool
	// The anchor round whose leader-wait timer is running, and the one whose
	// wait expired (0: none, round 0 never waits). Read only at e.round.
	leaderTimerArmed types.Round
	leaderTimedOut   types.Round

	// rounds holds each retained round's slots; its floor is the pruning floor.
	rounds types.RoundWindow[*roundSlots]

	commitsSinceGC    uint64
	progressLastRound types.Round
	progressTarget    types.ValidatorID
	// lastPullFrom is the FromRound of the last round pull sent; a pull from
	// the same round waits until nextPullNanos (see pull).
	lastPullFrom  types.Round
	nextPullNanos int64
	stats         Stats
	// syncBatch is maxSyncBatch; a field so a test can cut sync responses
	// inside a round of a small committee.
	syncBatch int
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
	// Execution is the validator's execution layer: snapshot state-sync
	// serves and installs through it, and checkpoint certification runs when
	// it certifies checkpoints.
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
	if p.Committee == nil || p.Scheduler == nil || p.DAG == nil || p.Batches == nil || p.Execution == nil {
		return nil, fmt.Errorf("engine: missing dependency (committee/scheduler/dag/batches/execution)")
	}
	if _, ok := p.Committee.Authority(p.Self); !ok {
		return nil, fmt.Errorf("engine: self %s not in committee", p.Self)
	}
	if p.Committee.Size() > maxSyncBatch {
		// A missing parent is fetched by round pull, whose reply holds at most
		// maxSyncBatch certificates: a larger committee's round never fits.
		return nil, fmt.Errorf("engine: committee of %d exceeds the %d certificates a pull's reply holds", p.Committee.Size(), maxSyncBatch)
	}
	// Only what verifies needs the keys: the stage, and checkpoint
	// certification, whose shares and certificates are always verified.
	verifies := p.Config.VerifySignatures || p.Execution.CheckpointCerts()
	if verifies && len(p.PublicKeys) != p.Committee.Size() {
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
	sink := p.Commits
	if sink == nil {
		sink = discardSink{}
	}
	observer := p.Observer
	if observer == nil {
		observer = nopObserver{}
	}
	e := &Engine{
		config:    p.Config,
		committee: p.Committee,
		self:      p.Self,
		keys:      p.Keys,
		pubKeys:   p.PublicKeys,
		batches:   p.Batches,
		dagStore:  p.DAG,
		committer: bullshark.New(p.Committee, p.DAG, p.Scheduler),
		scheduler: p.Scheduler,
		sink:      sink,
		observer:  observer,
		exec:      p.Execution,
		votes:     make([]crypto.Signature, p.Committee.Size()),
		voteStake: types.NewStakeAccumulator(p.Committee),
		syncBatch: maxSyncBatch,
	}
	if p.Config.VerifySignatures {
		// One table of signatures already verified or cast, shared by the
		// stage and the engine: a signature is checked once. The stage reads
		// the DAG too, and checks no certificate the engine drops unread.
		e.known = newKnownSigs(p.Committee.Size())
		e.prever = newPreVerifier(p.Keys.Scheme, p.Committee, p.PublicKeys, e.known, p.DAG)
	}
	if e.exec.CheckpointCerts() {
		e.ckptAcc = checkpoint.NewAccumulator(p.Committee)
	}
	return e, nil
}

// PreVerifier returns the validator's pre-verify stage, nil without
// Config.VerifySignatures. A runtime may run its Check on every message
// NeedsCheck names, off the engine's goroutine, and hand what passes to
// OnChecked; OnMessage runs the same stage inline.
func (e *Engine) PreVerifier() *PreVerifier { return e.prever }

// SyncBacklog reports how many certificates wait in the round window for
// their parents. Byzantine headers with fabricated parent edges park entries
// here; the window bounds them, at one per (round, source) slot, and pruning
// drops them with their rounds (see TestPendingStateGarbageCollected).
func (e *Engine) SyncBacklog() (pending int) {
	for r := e.rounds.Floor(); r <= e.highestHeld()+gapThreshold; r++ {
		if rs := e.rounds.At(r); rs != nil {
			for _, c := range rs.pending {
				if c != nil {
					pending++
				}
			}
		}
	}
	return pending
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
	out.timer(Timer{Kind: TimerProgress, Delay: 2 * e.config.resyncInterval()})
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
func (e *Engine) Stats() Stats { return e.stats }

// Committer exposes the underlying committer (read-only use: stats, last
// ordered round). Engine-goroutine only: the committer runs inside the engine
// step that inserts a vertex, so it is read between steps, never beside one.
func (e *Engine) Committer() *bullshark.Committer { return e.committer }

// Scheduler exposes the leader scheduler.
func (e *Engine) Scheduler() leader.Scheduler { return e.scheduler }

// DAG exposes the vertex store (read-only use).
func (e *Engine) DAG() *dag.DAG { return e.dagStore }

// OnMessage processes one protocol message. A kind NeedsCheck names goes
// through the pre-verify stage first, inline, and then the way OnChecked
// takes it; a message the stage refuses counts in the stage's Dropped and
// reaches nothing else. It does not rely on whoever built msg for a non-nil
// payload: the channel transport delivers Messages no decoder ever saw.
func (e *Engine) OnMessage(from types.ValidatorID, msg *Message, nowNanos int64) *Output {
	if e.prever != nil && NeedsCheck(msg.Kind) {
		c, ok := e.prever.Check(msg)
		if !ok {
			return &Output{}
		}
		msg = c.msg
	}
	return e.onMessage(from, msg, nowNanos)
}

// OnChecked processes a message the pre-verify stage passed (c from a Check
// that returned true): the signatures in it are not verified again.
func (e *Engine) OnChecked(from types.ValidatorID, c Checked, nowNanos int64) *Output {
	return e.onMessage(from, c.msg, nowNanos)
}

// OnRecorded replays one certificate from this validator's own durable record
// (validator.Recover). The validator verified it before recording it and the
// record is CRC-framed, so its signatures are not verified again; its vote
// count and quorum still are. Only the validator's own record comes through
// here: anything a peer sent goes through OnMessage or OnChecked.
func (e *Engine) OnRecorded(cert *Certificate, nowNanos int64) *Output {
	out := &Output{}
	e.onCertificate(cert, nowNanos, out)
	return out
}

// OnProposalDurable reports that the record of this validator's own header at
// round is durable (see Observer.Proposed): the header's certificate forms now
// if its quorum of votes is in, else as the quorum completes. A report for a
// header the engine has abandoned meanwhile does nothing.
func (e *Engine) OnProposalDurable(round types.Round, nowNanos int64) *Output {
	out := &Output{}
	if e.curHeader == nil || e.curHeader.Round != round || e.ownDurable {
		return out
	}
	e.ownDurable = true
	if !e.ownCertFormed && e.voteStake.ReachedQuorum() {
		e.certifyOwn(nowNanos, out)
	}
	return out
}

// onMessage dispatches msg, whose signatures the engine does not check: the
// stage did, or nothing does (Config.VerifySignatures off).
func (e *Engine) onMessage(from types.ValidatorID, msg *Message, nowNanos int64) *Output {
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
	case KindCertResponse:
		e.onCertResponse(from, msg.CertResponse, nowNanos, out)
	case KindRoundRequest:
		e.onRoundRequest(from, msg.RoundRequest, out)
	case KindSnapshotRequest:
		e.onSnapshotRequest(from, msg.SnapshotRequest, out)
	case KindSnapshotResponse:
		e.onSnapshotResponse(from, msg.SnapshotResponse, nowNanos, out)
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
	case TimerWaveDelay:
		if e.periodRound == types.Round(t.Round) {
			e.periodDelayOK = true
			if e.round == e.periodRound {
				e.tryAdvance(nowNanos, out)
			}
		}
	case TimerHeaderRetry:
		if e.round == types.Round(t.Round) && !e.ownCertFormed && e.curHeader != nil {
			out.broadcast(&Message{Kind: KindHeader, Header: e.curHeader})
			out.timer(Timer{Kind: TimerHeaderRetry, Round: t.Round, Delay: e.config.resyncInterval()})
		}
	case TimerProgress:
		if e.rejoin != nil {
			// Still short of a rejoin quorum: ask everyone again.
			e.rejoinPull(out)
		} else if from, ok := e.progressPull(); ok {
			// Pull from a rotating peer, so a crashed or withholding one
			// cannot wedge the engine.
			if target, ok := e.nextPeer(e.progressTarget); ok && e.pull(target, from, nowNanos, out) {
				e.progressTarget = target
			}
		}
		e.progressLastRound = e.round
		out.timer(Timer{Kind: TimerProgress, Delay: 2 * e.config.resyncInterval()})
	case TimerSnapshot:
		e.onSnapshotTimer(out)
	}
	return out
}

// OnBatchFull processes the pending transactions, carried and mempool,
// reaching MaxBatchTx between engine events. A full batch opens the pacing
// gate (see pacingOpen), but the gate is otherwise looked at only when a
// message or timer arrives: a quiet committee waiting out its floor would hold
// a batch that filled from the gateway until the period timer fired. The
// runtime calls it once per fill (validator.Validator.Submit reports one).
func (e *Engine) OnBatchFull(nowNanos int64) *Output {
	out := &Output{}
	e.tryAdvance(nowNanos, out)
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
	// The header's certificate will carry this vote, byte for byte.
	e.known.add(e.self, digest, sig)
	e.stats.VotesSent++
	out.unicast(h.Source, &Message{Kind: KindVote, Vote: &Vote{
		HeaderDigest: digest,
		Round:        h.Round,
		Origin:       h.Source,
		Voter:        e.self,
		Signature:    sig,
	}})
	e.startPeriod(h.Round, out)
}

func (e *Engine) onVote(v *Vote, nowNanos int64, out *Output) {
	if v == nil || v.Origin != e.self || e.curHeader == nil {
		return
	}
	if v.Round != e.round || v.HeaderDigest != e.curHeaderDigest || e.ownCertFormed || e.voteStake.ReachedQuorum() {
		return // stale, already certified, or a quorum already waits for the record
	}
	if int(v.Voter) >= len(e.votes) {
		// Voter outside the committee (malformed or malicious): no slot, no key.
		e.stats.InvalidMessages++
		return
	}
	if e.voteStake.Has(v.Voter) {
		return
	}
	e.votes[v.Voter] = v.Signature
	e.voteStake.Add(v.Voter)
	if e.voteStake.ReachedQuorum() && e.ownDurable {
		e.certifyOwn(nowNanos, out)
	}
}

// certifyOwn assembles the certificate of the current own header from the
// votes gathered (a quorum, and the header's record durable: the callers
// checked both), broadcasts and ingests it.
// Every vote in it is already checked — the stage verified the peers', and
// the own vote is the header signature this validator made.
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
		// responses and Byzantine backfill out of the window.
		return
	}
	if e.inDAG(c) {
		return
	}
	if p := e.pendingAt(c.Header.Round, c.Header.Source); p != nil && p.Digest() == c.Digest() {
		return
	}
	if !e.validCertificate(c) {
		e.stats.InvalidMessages++
		return
	}
	e.stats.CertsReceived++
	if !e.insertCert(c, nowNanos, out) {
		e.tryAdvance(nowNanos, out)
		return
	}
	// Blocked on parents. Edges point one round back, so a pull from the
	// round below c returns every parent it misses. Far above what this
	// validator holds, c is not kept: the catch-up the pull starts brings it
	// back in order, and a flood of fabricated far rounds costs nothing.
	held := e.highestHeld()
	from := held
	if c.Header.Round <= held+gapThreshold {
		if e.pend(c) {
			e.stats.CertsPended++
		}
		from = c.Header.Round - 1
	}
	if target, ok := e.syncPeer(c.Header.Source); ok {
		e.pull(target, from, nowNanos, out)
	}
}

// inDAG reports whether the DAG already holds the certificate's vertex: its
// (round, source) slot is occupied by the same digest.
func (e *Engine) inDAG(c *Certificate) bool {
	v, ok := e.dagStore.Get(c.Header.Round, c.Header.Source)
	return ok && v.Digest() == c.Digest()
}

// syncPeer picks the unicast target for sync traffic: the hint when it is a
// usable peer, otherwise the next validator after self. ok is false when the
// committee has no other member — a lone validator must never send sync
// requests to itself.
func (e *Engine) syncPeer(hint types.ValidatorID) (types.ValidatorID, bool) {
	if hint == e.self || int(hint) >= e.committee.Size() {
		return e.nextPeer(e.self)
	}
	return hint, true
}

// nextPeer is the rotation of sync targets: the member after the given one,
// mod n, skipping self. The progress pull and a stalled snapshot fetch walk
// the committee with it, so each reaches every peer in turn. ok is false
// when the committee has no other member.
func (e *Engine) nextPeer(after types.ValidatorID) (types.ValidatorID, bool) {
	n := uint32(e.committee.Size())
	if n < 2 {
		return 0, false
	}
	next := types.ValidatorID((uint32(after) + 1) % n)
	if next == e.self {
		next = types.ValidatorID((uint32(next) + 1) % n)
	}
	return next, true
}

// highestHeld is H, the highest round this validator holds: the DAG's
// highest round, or the floor right after a snapshot install left the DAG
// empty above it. Every round pull starts at or below it.
func (e *Engine) highestHeld() types.Round {
	return max(e.dagStore.HighestRound(), e.rounds.Floor())
}

// pull sends a round pull from the given round, lowered to highestHeld,
// and reports whether it went out. It goes at once unless the previous pull
// named the same round less than a resync interval ago: one arrival of many
// blocked certificates, or a reply that moved nothing, buys one pull, while
// the first pull and a pull from a new round are never held back.
func (e *Engine) pull(to types.ValidatorID, from types.Round, nowNanos int64, out *Output) bool {
	from = min(from, e.highestHeld())
	if from == e.lastPullFrom && nowNanos < e.nextPullNanos {
		return false
	}
	e.lastPullFrom, e.nextPullNanos = from, nowNanos+e.config.resyncInterval().Nanoseconds()
	e.stats.SyncRequests++
	out.unicast(to, &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: from}})
	return true
}

// progressPull names the round the progress watchdog pulls from, if it
// pulls. A stuck engine — no round progress since the previous firing —
// pulls from the last ordered round; while certificates pend, the pull
// reaches down to the round below the lowest of them, stuck or not: the
// retry of a pull that was lost, or sent to a peer that crashed.
func (e *Engine) progressPull() (types.Round, bool) {
	from, stuck := e.committer.LastOrderedRound(), e.round == e.progressLastRound
	if r, ok := e.lowestPending(); ok && (!stuck || r-1 < from) {
		return r - 1, true
	}
	return from, stuck
}

// lowestPending returns the lowest round holding a pending certificate. No
// certificate pends more than gapThreshold rounds above highestHeld, which
// only rises.
func (e *Engine) lowestPending() (types.Round, bool) {
	for r := e.rounds.Floor(); r <= e.highestHeld()+gapThreshold; r++ {
		if rs := e.rounds.At(r); rs != nil && slices.ContainsFunc(rs.pending, func(c *Certificate) bool { return c != nil }) {
			return r, true
		}
	}
	return 0, false
}

// pendingAt returns the certificate of (round, source) waiting for its
// parents, nil if none.
func (e *Engine) pendingAt(round types.Round, source types.ValidatorID) *Certificate {
	if rs := e.rounds.At(round); rs != nil && int(source) < len(rs.pending) {
		return rs.pending[source]
	}
	return nil
}

// pend parks c in its (round, source) slot until its parents arrive, and
// reports whether it did. An occupied slot is kept — only c's source could
// have signed a second header for it — and a round outside the window has no
// slot. Pruning drops the slot with its round.
func (e *Engine) pend(c *Certificate) bool {
	rs := e.slots(c.Header.Round)
	if rs == nil {
		return false
	}
	if rs.pending == nil {
		rs.pending = make([]*Certificate, e.committee.Size())
	}
	if rs.pending[c.Header.Source] != nil {
		return false
	}
	rs.pending[c.Header.Source] = c
	return true
}

// validCertificate checks a certificate's structure: its round, its source's
// membership, the vote-count rule and quorum voting stake. Its signatures are
// the stage's: a certificate the stage passed, or this validator assembled,
// carries only verified votes, and it is retained as it is and served to
// syncing peers.
func (e *Engine) validCertificate(c *Certificate) bool {
	if c.Header.Round < 1 {
		return false
	}
	if _, ok := e.committee.Authority(c.Header.Source); !ok {
		return false
	}
	if !oneVotePerMember(e.committee, c.Votes) {
		return false
	}
	acc := types.NewStakeAccumulator(e.committee)
	for _, vs := range c.Votes {
		acc.Add(vs.Voter)
	}
	return acc.ReachedQuorum()
}

// insertCert inserts a certificate into the DAG, runs the committer on its
// vertex, and retries the pending certificates this unblocked. It reports
// whether c itself is blocked on missing parents, leaving it to the caller;
// a retried certificate still blocked (it missed several parents) goes back
// to its slot.
//
// The DAG's Insert is the only place parents are resolved: it answers
// "all present?" and inserts in the same pass over the edges. Edges always
// point exactly one round back, so a vertex at round r can unblock only the
// pending certificates at r+1 whose edges name it, and a certificate whose
// parent round lies below the DAG's pruned floor is vacuously satisfied there
// — the insertion path after a snapshot install, where the first
// post-checkpoint round re-enters the DAG without its (snapshot-covered)
// parents.
func (e *Engine) insertCert(c *Certificate, nowNanos int64, out *Output) (blocked bool) {
	queue := []*Certificate{c}
	for len(queue) > 0 {
		cert := queue[0]
		queue = queue[1:]
		if e.inDAG(cert) {
			continue
		}
		vertex := cert.Header.Vertex()
		if err := e.dagStore.Insert(vertex); err != nil {
			switch {
			case errors.Is(err, dag.ErrMissingParents):
				if cert == c {
					return true
				}
				e.pend(cert)
			case !errors.Is(err, dag.ErrPruned):
				// Below the DAG's floor: an honest straggler is merely below
				// retention, not protocol-invalid. onCertificate drops those on
				// arrival; this keeps whatever path reaches here from counting
				// one as invalid.
				e.stats.InvalidMessages++
			}
			continue
		}
		round, source := cert.Header.Round, cert.Header.Source
		if rs := e.slots(round); rs != nil {
			rs.certs[source] = cert
			if rs.pending != nil {
				// The slot is the DAG's now: whatever pended there is moot.
				rs.pending[source] = nil
			}
		}
		// Before the vertex can reach the committer (see Observer.Inserted).
		e.observer.Inserted(cert)

		commits := e.committer.ProcessVertex(vertex)
		for _, sub := range commits {
			e.sink.DeliverCommit(sub)
		}
		if len(commits) > 0 {
			e.commitsSinceGC += uint64(len(commits))
			if e.commitsSinceGC >= gcEvery {
				e.commitsSinceGC = 0
				e.garbageCollect()
			}
		}

		// Retry the children waiting on this vertex.
		if next := e.rounds.At(round + 1); next != nil {
			digest := cert.Digest()
			for s, child := range next.pending {
				if child != nil && slices.Contains(child.Header.Edges, digest) {
					next.pending[s] = nil
					queue = append(queue, child)
				}
			}
		}
	}
	return false
}

// onRoundRequest answers a round pull with the certificate frontier (see
// certRange), even when it holds none: a rejoining requester counts the
// reply. Every committee member answers — including one that is itself
// mid-rejoin, since in a correlated restart the quorum can only be assembled
// from validators in exactly that state. When the pulled rounds lie below
// our pruning floor, our latest checkpoint rides along as an offer: the
// requester misses history nobody retains.
func (e *Engine) onRoundRequest(from types.ValidatorID, req *RoundRequest, out *Output) {
	if req == nil || from == e.self {
		return
	}
	resp := &CertResponse{FromRound: req.FromRound, Certs: e.certRange(req.FromRound)}
	if req.FromRound < e.rounds.Floor() {
		if meta, _, ok := e.exec.LatestSnapshot(); ok {
			resp.Offer = &meta
		}
	}
	out.unicast(from, &Message{Kind: KindCertResponse, CertResponse: resp})
}

// onCertResponse takes the reply to a round pull: its certificates go through
// the normal ingestion path (pending included), an offered checkpoint beyond
// our GC horizon starts a snapshot fetch, and the reply counts its sender
// toward a rejoin quorum. Replies arriving after the handshake completed
// still contribute their certificates.
func (e *Engine) onCertResponse(from types.ValidatorID, resp *CertResponse, nowNanos int64, out *Output) {
	if resp == nil {
		e.stats.InvalidMessages++
		return
	}
	for _, c := range resp.Certs {
		e.onCertificate(c, nowNanos, out)
	}
	e.stats.SyncResponses++
	if resp.Offer != nil && resp.Offer.Round > e.committer.LastOrderedRound()+types.Round(e.config.GCDepth) {
		// Certificate sync can never close a gap this wide, and the offer
		// already names the checkpoint to fetch.
		e.startSnapshotFetch(from, *resp.Offer, out)
	}
	if e.rejoin != nil {
		// The accumulator counts each peer once.
		e.rejoin.Add(from)
		if e.rejoin.ReachedQuorum() {
			e.completeRejoin(nowNanos, out)
		}
	}
	// Batched catch-up: a full reply was cut short of the responder's
	// frontier, so pull the next range from the same peer at once; a short
	// one means this validator reached it. Each round trip advances
	// maxSyncBatch certificates, so a recovering validator outpaces the live
	// frontier instead of crawling one round per resync interval.
	if len(resp.Certs) >= e.syncBatch {
		e.pull(from, e.highestHeld(), nowNanos, out)
	}
}

// certRange collects every retained certificate from the given round on,
// oldest rounds first so the requester can insert parents-first, in source
// order within a round, capped at maxSyncBatch: a walk over the slots, costing
// the rounds scanned and the batch.
func (e *Engine) certRange(start types.Round) []*Certificate {
	certs := make([]*Certificate, 0, e.syncBatch)
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
			if len(certs) == e.syncBatch {
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
		rs = &roundSlots{voted: types.NewValidatorSet(n), votedFor: make([]types.Digest, n), certs: make([]*Certificate, n)}
		e.rounds.Set(round, rs)
	}
	return rs
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
		// two ahead) on the paced path, and it leaves a validator that stalls
		// a round of room beyond four: the whole-round openers in pacingOpen
		// can send the others on at the instant its links slow, so it may
		// start a stall one round behind. One round, however many rounds of
		// a period leave at once: each opener takes the whole round, the
		// stalling validator's certificate at it included, so the others
		// leave the round after without it only at the per-round floor.
		if frontier := e.dagStore.HighestRound(); frontier > e.round+5 {
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
		open, early := e.pacingOpen()
		if !open {
			return
		}
		behind := e.dagStore.HighestRound() > e.round
		if e.round.IsAnchorRound() && e.round > 0 && !behind && e.leaderTimedOut != e.round {
			leaderID := e.scheduler.LeaderAt(e.round)
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
		switch early {
		case earlyWhole:
			e.stats.HeadersWholeEarly++
		case earlyFull:
			e.stats.HeadersFullEarly++
		}
		e.propose(e.round+1, nowNanos, out)
	}
}

// earlyReason says what opened the pacing gate before MinRoundDelay, the
// period timer or the f+1 rule did.
type earlyReason uint8

const (
	notEarly   earlyReason = iota
	earlyWhole             // a whole round ≡ 1, 2 or 3 (mod 4)
	earlyFull              // a full batch over a whole round
)

// periodRounds is the length of a pacing period in rounds: a batch round
// (≡ 1), its anchor (≡ 2), the vote that commits that anchor (≡ 3), and a
// round ≡ 0 that waits out the rest of the period (see pacingOpen).
const periodRounds = 4

// CommitEndsFastPhase reports whether the commit of the anchor at round
// anchor ends a period's fast phase. An anchor ≡ 2 (mod 4) is committed by
// its vote round ≡ 3; the validator then proposes the round ≡ 0, which waits
// out the period. Work that commit starts runs while nothing waits for it.
// The commit of an anchor ≡ 0 (mod 4) lands as the batch round is left, at
// the start of the three rounds that leave at once.
func CommitEndsFastPhase(anchor types.Round) bool { return anchor%periodRounds == 2 }

// startPeriod arms the period timer of batch round r (see pacingOpen) once
// this validator holds round-r headers worth f+1 stake, its own counted once
// proposed. Not at its own header alone: a validator whose period ran ahead
// of the committee's — it started first, or left a round early — would leave
// every round ≡ 0 alone, one f+1 rule ahead of the rest, for good, and the
// batch it proposed early would wait for the others' in every period. Counted
// from the (f+1)-th header, the periods of the committee agree within a
// message delay from the first one on, and one of those headers belongs to an
// honest validator that waited out its own period.
func (e *Engine) startPeriod(r types.Round, out *Output) {
	if r%periodRounds != 1 || e.periodRound >= r+periodRounds-1 {
		return
	}
	rs := e.slots(r)
	if rs == nil {
		return
	}
	var stake types.Stake
	for id := range rs.voted.All() {
		stake += e.committee.Stake(id)
	}
	if stake < e.committee.ValidityThreshold() {
		return
	}
	e.periodRound, e.periodDelayOK = r+periodRounds-1, false
	out.timer(Timer{Kind: TimerWaveDelay, Round: uint64(e.periodRound), Delay: e.config.MinRoundDelay})
}

// pacingOpen reports whether header pacing lets this validator leave its
// round, and, when only a whole round opened it, why. Certificates worth f+1
// stake at the next round always open the gate: one of them is an honest
// validator's, which paced itself into that round, so following it keeps the
// committee's round rate at the floor — while a validator that fell behind
// re-aligns within a round trip instead of staying late by the same amount
// forever (its timer restarts from its own, late, proposal), until its
// certificates miss every next round's parent set. Stake of f or less ahead
// moves nobody: a fast or Byzantine minority cannot un-pace the rest.
//
// A round missing a validator's certificate is otherwise left MinRoundDelay
// after the validator's own last proposal, the per-round floor. A whole round
// — every validator's certificate in — is paced by period instead, four rounds
// by round number. Round r ≡ 1 (mod 4) is the batch round, r ≡ 2 its anchor
// and r ≡ 3 the vote that commits that anchor (Bullshark commits it once f+1
// stake at the next round links it): whole, each is left at once. A round ≡ 0
// is left once MinRoundDelay has passed since the validator held batch-round
// headers worth f+1 stake (the period timer; see startPeriod), and the
// per-round floor does not open it while that timer is armed: the period, not
// the validator's own last proposal, decides when the next batch goes. So a
// committee that keeps up sends one batch per floor, and every batch-round
// vertex is in the causal history of the very next anchor, which commits
// three round trips after the batch. A round ≡ 0 with no period timer of its
// own — reached by a catch-up jump, a rejoin or a restored header, or left
// behind by f+1 peers already in the next period — falls back to the
// per-round floor, and so does genesis, round 0.
//
// A full header's worth of transactions, carried and pending, opens a whole
// round of any residue: the floor exists to batch, and a full batch has
// nothing left to wait for (Narwhal's primary likewise sends a header once it
// holds enough batches; its delay timer covers only a partly filled one).
// Under backlog a healthy committee then advances at certification pace, not
// MaxBatchTx per MinRoundDelay.
//
// Every opener but the floors and f+1 takes the whole round, not a quorum: a
// committee that left a slower validator's vertices behind at certification
// pace would soon be more than five rounds ahead of it, and the catch-up jump
// that follows cuts the chain of its own vertices, whose transactions then
// never commit. So the slowest validator sets the pace, and a crashed one puts
// everybody back on the per-round floor. Only the floor is lifted: the own
// certificate still gates tryAdvance, and the whole round holds an anchor
// round's leader.
func (e *Engine) pacingOpen() (open bool, early earlyReason) {
	if e.dagStore.RoundStake(e.round+1) >= e.committee.ValidityThreshold() {
		return true, notEarly
	}
	if e.dagStore.RoundStake(e.round) != e.committee.TotalStake() {
		return e.roundDelayOK, notEarly
	}
	switch {
	case e.periodRound != 0 && e.round == e.periodRound:
		if e.periodDelayOK {
			return true, notEarly
		}
	case e.roundDelayOK:
		return true, notEarly
	case e.round%periodRounds != 0:
		return true, earlyWhole
	}
	if len(e.carried)+e.batches.Pending() >= e.config.MaxBatchTx {
		return true, earlyFull
	}
	return false, notEarly
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
		e.setCarried(append(e.carried, h.Batch.Transactions...))
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

// setCarried replaces the carried transactions.
func (e *Engine) setCarried(txs []types.Transaction) {
	e.carried = txs
	e.carriedLen.Store(int64(len(txs)))
}

// Carried returns how many transactions of abandoned own headers wait for the
// next ones. Safe from any goroutine: the admission path adds it to the
// mempool's pending count to see a batch fill (see OnBatchFull).
func (e *Engine) Carried() int { return int(e.carriedLen.Load()) }

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
	e.setCarried(e.carried[n:])
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
			e.setCarried(append(e.carried, header.Batch.Transactions...))
		}
		return
	}
	header.Signature = sig

	e.adoptHeader(header, digest, sig)
	e.restoredHeader = false
	e.roundDelayOK = false
	e.stats.HeadersProposed++
	// Handed to the record before it can reach the wire; certified only once
	// the record is durable (see Observer.Proposed).
	e.ownDurable = e.observer.Proposed(header)

	out.broadcast(&Message{Kind: KindHeader, Header: header})
	out.timer(Timer{Kind: TimerRoundDelay, Round: uint64(round), Delay: e.config.MinRoundDelay})
	e.startPeriod(round, out)
	out.timer(Timer{Kind: TimerHeaderRetry, Round: uint64(round), Delay: e.config.resyncInterval()})

	// A lone validator committee (n=1) certifies on its self-vote, once the
	// record is durable.
	if e.ownDurable && e.voteStake.ReachedQuorum() {
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
	e.ownDurable = false
	// Outside the window no header of the round can certify here: no record.
	if rs := e.slots(h.Round); rs != nil {
		rs.voted.Add(e.self)
		rs.votedFor[e.self] = digest
	}
}

// garbageCollect prunes DAG rounds, certificates and vote records no longer
// needed by the committer or the scheduler's score scans. It is the one place
// the pruning floor is computed: the committer's ordered set, the DAG and the
// engine's round window all move to the same floor here (a snapshot install
// moves all three to its boundary).
func (e *Engine) garbageCollect() {
	floor := min(e.committer.LastOrderedRound(), e.scheduler.MinRetainedRound())
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

// pruneProtocolState drops every ingest-owned record below floor — the votes
// cast, the certificates retained and the certificates pending there — in
// one slide of the window. Pending certificates below the floor can never
// insert (the DAG refuses pruned rounds), so without this prune a Byzantine
// validator certifying headers with fabricated parent edges (voters never
// check that edges resolve) would park them without bound.
func (e *Engine) pruneProtocolState(floor types.Round) {
	e.rounds.DropBelow(floor)
}
