package engine

import (
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
//  1. After WAL replay the node broadcasts a RoundRequest from its highest
//     DAG round: the rejoin pull.
//  2. Peers — live or themselves mid-rejoin — answer it as they answer any
//     round pull, with a CertResponse of their retained certificates from
//     that round on (none, if they hold none). Replies merge every
//     survivor's replayed history into the requester's DAG. A reply to any
//     other round pull, such as the pull for a missing parent, counts too
//     (see completeRejoin).
//  3. Once replies worth a write quorum (counting itself) are gathered,
//     the node re-proposes into a fresh round strictly above every round the
//     merged frontier can still complete, forfeiting its slots below it — so
//     nobody ever waits on a proposal that only existed in a dead process's
//     memory. If its own pre-crash certificate for that round survived in a
//     WAL, the node adopts and re-broadcasts it instead of proposing a
//     conflicting header.
//
// Under-quorum gathering retries forever: every TimerProgress firing
// re-broadcasts the pull while the node is rejoining, since fewer than 2f+1
// reachable validators cannot make progress no matter what, so waiting for
// peers to come back is the only correct move. A responder that pruned the
// pulled rounds attaches a checkpoint offer, which routes the requester into
// snapshot state-sync — certificate sync can no longer close that gap.

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
	e.ownDurable = true // read back from the record
	e.roundDelayOK = true
}

// ProposalFloor returns the restored voted-round high-water mark (0 when no
// proposal was recovered).
func (e *Engine) ProposalFloor() types.Round { return e.proposalFloor }

// Rejoining reports whether a crash-rejoin handshake is still gathering
// replies.
func (e *Engine) Rejoining() bool { return e.rejoin != nil }

// StartRejoin begins the crash-rejoin handshake. Call it exactly where the
// runtime goes live after WAL replay (replayed outputs were suppressed, so
// every timer the engine believes it armed during recovery is phantom —
// StartRejoin resets that bookkeeping before anything can wedge on it). Its
// retries ride the progress watchdog, so call it after Init's output was
// dispatched. The returned output is dispatchable like any other step's.
func (e *Engine) StartRejoin(nowNanos int64) *Output {
	out := &Output{}
	// Phantom-timer reset: the leader-wait armed flag refers to a timer
	// discarded with the suppressed replay outputs. Without the reset a
	// leader-wait "armed" during replay blocks its round forever (tryAdvance
	// never re-arms). Certificates replay left pending are pulled for by the
	// progress watchdog, which Init armed live.
	e.leaderTimerArmed = 0

	e.rejoin = types.NewStakeAccumulator(e.committee)
	e.rejoin.Add(e.self)
	if e.rejoin.ReachedQuorum() {
		// Lone-validator committee: our own frontier IS the quorum view.
		e.completeRejoin(nowNanos, out)
		return out
	}
	e.rejoinPull(out)
	return out
}

// rejoinPull broadcasts the handshake's round pull from the DAG's highest
// round. StartRejoin sends the first; the progress watchdog re-sends it
// every firing until the handshake completes, for peers that were still
// restarting when the last one went out.
func (e *Engine) rejoinPull(out *Output) {
	e.stats.RejoinRequests++
	out.broadcast(&Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: e.dagStore.HighestRound()}})
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
//
// Every reply counts toward the quorum, whichever pull it answers: a pull
// names a FromRound no higher than the highest round the requester held when
// it sent it, and target is at least the DAG's highest round, so any reply
// covers the fresh round.
func (e *Engine) completeRejoin(nowNanos int64, out *Output) {
	e.rejoin = nil
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
			out.timer(Timer{Kind: TimerHeaderRetry, Round: uint64(e.round), Delay: e.config.resyncInterval()})
		}
	case ownCert != nil:
		// Our pre-crash proposal for the fresh round certified and the
		// certificate survived in a WAL: adopt it — proposing again (or
		// re-broadcasting a replay-time header built for the same round)
		// would equivocate the slot. Re-broadcast the certificate so peers
		// that have not merged it yet can still complete the round.
		e.resumeAt(target)
		out.broadcast(&Message{Kind: KindCertificate, Cert: ownCert})
	case e.pendingAt(target, e.self) != nil:
		// Same, but the surviving certificate still waits for its parents in
		// its slot; adopting the round keeps us from proposing a conflicting
		// header while the pull for them finishes the insert.
		e.resumeAt(target)
	case e.round == target && e.curHeader != nil && e.curHeader.Round == target && !e.ownCertFormed:
		// Our replay-time proposal already sits at the fresh round — it was
		// simply never transmitted. Put it on the wire now; re-proposing
		// would conflict with our own recorded vote for it.
		e.roundDelayOK = true
		out.broadcast(&Message{Kind: KindHeader, Header: e.curHeader})
		out.timer(Timer{Kind: TimerHeaderRetry, Round: uint64(target), Delay: e.config.resyncInterval()})
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
