package engine

import (
	"time"

	"hammerhead/internal/types"
)

// Crash-rejoin handshake.
//
// WAL recovery rebuilds a validator's DAG, committer and execution state, but
// everything the dead process kept only in memory is gone: the header it was
// proposing, the votes it had gathered, the timers it had armed. A single
// restarted validator gets pulled forward by the live frontier, but when the
// WHOLE committee is SIGKILLed and restarted simultaneously every validator
// is in the same position — replay-time proposals were never on the wire, so
// the pre-crash round can never complete and round pulls find nothing new:
// the committee wedges forever (the liveness hole the post-replay nudges of
// earlier builds only papered over for graceful shutdowns).
//
// The handshake re-establishes a live round deterministically:
//
//  1. After WAL replay the node broadcasts a RejoinRequest carrying its
//     replayed frontier (highest DAG round, last ordered round, applied
//     sequence).
//  2. Peers — live or themselves mid-rejoin — answer with a RejoinResponse:
//     their own frontier plus their retained certificates from the
//     requester's frontier round on. Responses merge every survivor's
//     replayed history into the requester's DAG.
//  3. Once responses worth a write quorum (counting itself) are gathered,
//     the node re-proposes into a fresh round strictly above every round the
//     merged frontier can still complete, forfeiting its slots below it — so
//     nobody ever waits on a proposal that only existed in a dead process's
//     memory. If its own pre-crash certificate for that round survived in a
//     WAL, the node adopts and re-broadcasts it instead of proposing a
//     conflicting header.
//
// Under-quorum gathering retries forever (TimerRejoin): fewer than 2f+1
// reachable validators cannot make progress no matter what, so waiting for
// peers to come back is the only correct move. A responder whose frontier
// sits beyond the requester's GC horizon routes the requester into snapshot
// state-sync — certificate sync can no longer close that gap.

// rejoinState is the requester-side state of one handshake. Retry counts are
// visible through Stats.RejoinRequests; the merged frontier lives in the DAG
// itself (responses insert their certificates), so the state here is only
// what quorum gathering needs.
type rejoinState struct {
	active    bool
	acc       *types.StakeAccumulator
	responded map[types.ValidatorID]bool
}

// rejoinRetryDelay is the handshake's retry pacing.
func (e *Engine) rejoinRetryDelay() time.Duration {
	if e.config.RejoinTimeout > 0 {
		return e.config.RejoinTimeout
	}
	return 2 * e.config.ResyncInterval
}

// RestoreProposal re-adopts the highest proposal header recovered from the
// WAL — the voted-round high-water mark. Call it on the engine goroutine
// after WAL replay, before the node goes live.
//
// Replay rebuilds certificates, but the header this validator was proposing
// when it died exists only as a WAL proposal record. Without it, recovery
// builds a FRESH header for the same round (different batch, possibly
// different edges — a different digest), and if the pre-crash header's
// certificate survived anywhere (a live peer, a dead peer's WAL tail),
// transmitting the fresh one equivocates the slot and forks the DAG at
// receivers holding the old certificate. Restoring the recorded header makes
// recovery re-transmit the IDENTICAL proposal: peers that voted pre-crash
// simply re-vote the same digest (their votedFor check passes), and the slot
// can never fork.
//
// The restored round also becomes the engine's proposal floor: propose()
// refuses to construct any new header at or below it, narrowing the WAL-tail
// slot-equivocation window to proposals whose record itself was lost in a
// torn tail (the same hazard class as async certificate-append tail loss).
func (e *Engine) RestoreProposal(h *Header) {
	if h == nil || h.Source != e.self || h.Round < 1 {
		return
	}
	if h.Round > e.proposalFloor {
		e.proposalFloor = h.Round
	}
	if e.certAt(h.Round, e.self) != nil {
		// The proposal's certificate survived in our own WAL; the adopt path
		// in completeRejoin (or normal operation) covers the slot.
		return
	}
	if h.Round < e.round {
		// Replay already moved past this round (catch-up jump): the slot was
		// forfeited, and the floor above keeps it that way.
		return
	}
	digest := h.Digest()
	sig, err := e.keys.Sign(digest[:])
	if err != nil {
		return // unreachable with well-formed keys; the floor still holds
	}
	e.abandonHeader() // a header built during replay was never transmitted
	e.adoptHeader(h, digest, sig)
	e.restoredHeader = true
	e.roundDelayOK = true
}

// ProposalFloor returns the restored voted-round high-water mark (0 when no
// proposal was recovered).
func (e *Engine) ProposalFloor() types.Round { return e.proposalFloor }

// Frontier reports the engine's current recovery frontier — what a
// RejoinRequest would carry right now.
func (e *Engine) Frontier() Frontier {
	f := Frontier{
		HighestRound: e.dagStore.HighestRound(),
		LastOrdered:  e.lastOrderedRound(),
	}
	if e.exec != nil {
		f.AppliedSeq = e.exec.AppliedSeq()
	}
	return f
}

// Rejoining reports whether a crash-rejoin handshake is still gathering
// responses.
func (e *Engine) Rejoining() bool { return e.rejoin.active }

// StartRejoin begins the crash-rejoin handshake. Call it exactly where the
// runtime goes live after WAL replay (replayed outputs were suppressed, so
// every timer the engine believes it armed during recovery is phantom —
// StartRejoin resets that bookkeeping before anything can wedge on it). The
// returned output is dispatchable like any other step's.
func (e *Engine) StartRejoin(nowNanos int64) *Output {
	out := &Output{}
	// Phantom-timer reset: leader-wait armed flags and the resync flag refer
	// to timers discarded with the suppressed replay outputs. Without the
	// reset a leader-wait "armed" during replay blocks its round forever
	// (tryAdvance never re-arms), and pending parents are never re-requested.
	e.leaderTimerArmed = 0
	e.resyncArmed = false
	if len(e.pendingByMissing) > 0 {
		e.resyncArmed = true
		out.timer(Timer{Kind: TimerResync, Delay: e.config.ResyncInterval})
	}

	e.rejoin = rejoinState{
		active:    true,
		acc:       types.NewStakeAccumulator(e.committee),
		responded: make(map[types.ValidatorID]bool),
	}
	e.rejoin.responded[e.self] = true
	e.rejoin.acc.Add(e.self)
	e.stats.RejoinRequests++
	if e.rejoin.acc.ReachedQuorum() {
		// Lone-validator committee: our own frontier IS the quorum view.
		e.completeRejoin(nowNanos, out)
		return out
	}
	out.broadcast(&Message{Kind: KindRejoinRequest, RejoinRequest: &RejoinRequest{Frontier: e.Frontier()}})
	out.timer(Timer{Kind: TimerRejoin, Delay: e.rejoinRetryDelay()})
	return out
}

// onRejoinTimer retries an unfinished handshake: peers that were still
// restarting when the first request went out answer the re-broadcast.
func (e *Engine) onRejoinTimer(nowNanos int64, out *Output) {
	if !e.rejoin.active {
		return
	}
	e.stats.RejoinRequests++
	out.broadcast(&Message{Kind: KindRejoinRequest, RejoinRequest: &RejoinRequest{Frontier: e.Frontier()}})
	out.timer(Timer{Kind: TimerRejoin, Delay: e.rejoinRetryDelay()})
}

// onRejoinRequest serves a restarted peer: our frontier plus retained
// certificates from its frontier round on. Every committee member answers —
// including one that is itself mid-rejoin, since in a correlated restart the
// quorum can only be assembled from validators in exactly that state. When an
// execution checkpoint exists it rides along as an offer, so a requester too
// far behind for certificate sync can start its snapshot fetch without first
// probing for one.
func (e *Engine) onRejoinRequest(from types.ValidatorID, req *RejoinRequest, out *Output) {
	if req == nil || from == e.self {
		e.stats.InvalidMessages++
		return
	}
	e.stats.RejoinResponses++
	resp := &RejoinResponse{
		Frontier: e.Frontier(),
		Certs:    e.certRange(req.Frontier.HighestRound),
	}
	if e.exec != nil {
		if meta, _, ok := e.exec.LatestSnapshot(); ok {
			resp.Offer = &meta
		}
	}
	out.unicast(from, &Message{Kind: KindRejoinResponse, RejoinResponse: resp})
}

// onRejoinResponse merges one survivor's view: its certificates go through
// the normal ingestion path (pending/sync machinery included), its frontier
// counts toward the gathering quorum, and a frontier beyond our GC horizon
// routes us into snapshot state-sync. Responses arriving after completion
// still contribute their certificates.
func (e *Engine) onRejoinResponse(from types.ValidatorID, resp *RejoinResponse, nowNanos int64, out *Output) {
	if resp == nil {
		e.stats.InvalidMessages++
		return
	}
	for _, c := range resp.Certs {
		e.onCertificate(c, nowNanos, out)
	}
	if resp.Offer != nil && resp.Offer.Round > e.lastOrderedRound()+types.Round(e.config.GCDepth) {
		// The responder's checkpoint sits beyond our GC horizon: certificate
		// sync can never close that gap, and the offer already tells us which
		// checkpoint to fetch. Start the download now, pinned to the offered
		// round — the blind discovery request (and, under checkpoint rotation,
		// a from-scratch restart) is skipped entirely.
		e.startOfferedSnapshotFetch(from, *resp.Offer, nowNanos, out)
	}
	if resp.Frontier.LastOrdered > e.lastOrderedRound()+types.Round(e.config.GCDepth) {
		// The responder ordered so far past us that its certificate history
		// is pruned; only a checkpoint can close the gap.
		e.maybeSnapshotSync(from, nowNanos, out)
	}
	if !e.rejoin.active || e.rejoin.responded[from] {
		return
	}
	e.rejoin.responded[from] = true
	e.rejoin.acc.Add(from)
	if e.rejoin.acc.ReachedQuorum() {
		e.completeRejoin(nowNanos, out)
	}
}

// completeRejoin re-establishes a live round from the merged quorum view.
//
// Let q be the highest round holding a certificate write quorum in the
// merged DAG, and target = q+1 the fresh round. Because a certificate at
// round r proves a quorum existed at r-1, no merged certificate can sit
// above q+1 — so target is either strictly above every replayed round
// (common case: the frontier round itself has quorum) or exactly the
// partially-certified frontier round. Either way, every live validator can
// contribute to target without waiting on a dead process: it proposes a
// fresh header there, unless its own pre-crash certificate for target
// survived in a WAL — then it adopts and re-broadcasts that certificate
// instead (proposing again would equivocate the slot and fork the DAG at
// receivers that already hold the old certificate).
func (e *Engine) completeRejoin(nowNanos int64, out *Output) {
	e.rejoin = rejoinState{}
	e.stats.RejoinsCompleted++

	q := e.dagStore.HighestRound()
	for q > 0 && !e.dagStore.HasQuorumAt(q) {
		q--
	}
	target := q + 1
	ownCert := e.certAt(target, e.self)

	switch {
	case e.round > target:
		// Already proposing above every gathered frontier (a live committee
		// pulled us forward while responses were in flight, or a restored
		// pre-crash proposal sits above the merged quorum because our WAL
		// retained more than any responder's): un-stick the pacing gate,
		// whose timer may be a replay phantom, and put an untransmitted
		// restored header on the wire — recovery suppressed its original
		// broadcast, and nobody retransmits it for us.
		e.roundDelayOK = true
		if !e.ownCertFormed && e.curHeader != nil && e.curHeader.Round == e.round {
			out.broadcast(&Message{Kind: KindHeader, Header: e.curHeader})
			out.timer(Timer{Kind: TimerHeaderRetry, Round: uint64(e.round), Delay: e.config.ResyncInterval})
		}
	case ownCert != nil:
		// Our pre-crash proposal for the fresh round certified and the
		// certificate survived in a WAL: adopt it — proposing again (or
		// re-broadcasting a replay-time header built for the same round)
		// would equivocate the slot. Re-broadcast the certificate so peers
		// that have not merged it yet can still complete the round.
		e.resumeAt(target)
		out.broadcast(&Message{Kind: KindCertificate, Cert: ownCert})
	case e.ownPendingAt(target):
		// Same, but the surviving certificate is still waiting on parent
		// sync; adopting the round keeps us from proposing a conflicting
		// header while the causal-sync machinery finishes the insert.
		e.resumeAt(target)
	case e.round == target && e.curHeader != nil && e.curHeader.Round == target && !e.ownCertFormed:
		// Our replay-time proposal already sits at the fresh round — it was
		// simply never transmitted. Put it on the wire now; re-proposing
		// would conflict with our own recorded vote for it.
		e.roundDelayOK = true
		out.broadcast(&Message{Kind: KindHeader, Header: e.curHeader})
		out.timer(Timer{Kind: TimerHeaderRetry, Round: uint64(target), Delay: e.config.ResyncInterval})
	default:
		// Forfeit our slots at and below the merged frontier and propose
		// fresh strictly above it. The quorum round q is complete — never
		// wait for its leader certificate, which may only have existed in a
		// dead process's memory.
		e.resumeAt(q)
		e.leaderTimedOut = q
	}
	e.tryAdvance(nowNanos, out)
}

// ownPendingAt reports whether a certificate of our own at the given round
// sits in the causal-sync pending set.
func (e *Engine) ownPendingAt(round types.Round) bool {
	if e.pendingRounds[round] == 0 {
		return false
	}
	for _, c := range e.pendingCerts {
		if c.Header.Round == round && c.Header.Source == e.self {
			return true
		}
	}
	return false
}
