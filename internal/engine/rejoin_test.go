package engine

import (
	"slices"
	"testing"

	"hammerhead/internal/types"
)

// findUnicastTo returns the first unicast of the given kind addressed to id.
func findUnicastTo(out *Output, to types.ValidatorID, kind MessageKind) *Message {
	for _, u := range out.Unicasts {
		if u.To == to && u.Msg.Kind == kind {
			return u.Msg
		}
	}
	return nil
}

// pullReplyFrom routes engine `from`'s answer to a round pull back as the
// message the requester would receive.
func pullReplyFrom(t *testing.T, rig *testRig, from, requester types.ValidatorID, req *Message) *Message {
	t.Helper()
	out := rig.engines[from].OnMessage(requester, req, 0)
	resp := findUnicastTo(out, requester, KindCertResponse)
	if resp == nil {
		t.Fatalf("engine %d did not answer the round pull", from)
	}
	if resp.CertResponse.FromRound != req.RoundRequest.FromRound {
		t.Fatalf("engine %d answered round %d's pull as %+v", from, req.RoundRequest.FromRound, resp.CertResponse)
	}
	return resp
}

// TestRejoinHandshakeCompletesAtQuorum drives the handshake message by
// message on a live rig: the rejoin pull is broadcast from the engine's
// highest DAG round, peers answer with their certificates from that round on,
// and the handshake completes exactly when replies (counting self) reach a
// write quorum — re-transmitting the never-sent proposal for the fresh round.
func TestRejoinHandshakeCompletesAtQuorum(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	for i := 0; i < 6; i++ {
		certifyRound(t, rig, nil)
	}
	e3 := rig.engines[3]
	preRound := e3.Round()

	out := e3.StartRejoin(0)
	req := findBroadcast(t, out, KindRoundRequest)
	if got := req.RoundRequest.FromRound; got != e3.DAG().HighestRound() {
		t.Fatalf("rejoin pull from round %d, want DAG frontier %d", got, e3.DAG().HighestRound())
	}
	if !e3.Rejoining() {
		t.Fatal("engine must be gathering after StartRejoin")
	}

	// First response: self + one responder = 2 of 4 stake, below quorum.
	resp0 := pullReplyFrom(t, rig, 0, 3, req)
	if len(resp0.CertResponse.Certs) == 0 {
		t.Fatal("peer must serve its frontier certificates")
	}
	e3.OnMessage(0, resp0, 0)
	if !e3.Rejoining() {
		t.Fatal("handshake completed below quorum")
	}

	// Second response reaches 2f+1: the handshake completes and the engine
	// re-establishes its round — the replay-suppressed proposal goes out.
	resp1 := pullReplyFrom(t, rig, 1, 3, req)
	out = e3.OnMessage(1, resp1, 0)
	if e3.Rejoining() {
		t.Fatal("handshake must complete at quorum")
	}
	if got := e3.Stats().RejoinsCompleted; got != 1 {
		t.Fatalf("RejoinsCompleted = %d, want 1", got)
	}
	hdr := findBroadcast(t, out, KindHeader)
	if hdr.Header.Round != preRound || hdr.Header.Source != 3 {
		t.Fatalf("re-transmitted header (%d, v%d), want (%d, v3)", hdr.Header.Round, hdr.Header.Source, preRound)
	}
	// A third (late) response is harmless.
	resp2 := pullReplyFrom(t, rig, 2, 3, req)
	e3.OnMessage(2, resp2, 0)
	if got := e3.Stats().RejoinsCompleted; got != 1 {
		t.Fatalf("late response re-completed the handshake: %d", got)
	}
}

// TestRejoinBelowQuorumRetries is the f+1-alive partial-restart case: with
// only f+1 validators reachable (self plus f responders — below the 2f+1
// write quorum for n=4, f=1), the handshake must keep re-broadcasting its
// pull at every progress-watchdog firing instead of completing: fewer than
// 2f+1 live validators cannot make progress, so declaring the rejoin done
// would just re-wedge the engine. Each peer's reply counts once — a repeated
// reply does not — and a reply with no certificates counts like any other.
// The handshake completes as soon as one more validator answers.
func TestRejoinBelowQuorumRetries(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	for i := 0; i < 4; i++ {
		certifyRound(t, rig, nil)
	}
	e3 := rig.engines[3]
	out := e3.StartRejoin(0)
	req := findBroadcast(t, out, KindRoundRequest)

	// Only one peer is alive: f+1 = 2 validators total can talk.
	resp := pullReplyFrom(t, rig, 0, 3, req)
	e3.OnMessage(0, resp, 0)
	if !e3.Rejoining() {
		t.Fatal("f+1 alive validators are below quorum; the handshake must keep gathering")
	}
	// A duplicate response from the same peer must not double-count stake.
	e3.OnMessage(0, resp, 0)
	if !e3.Rejoining() {
		t.Fatal("duplicate response double-counted toward the quorum")
	}

	// The progress watchdog re-broadcasts the pull, forever if need be, and
	// whether or not the round moved since its last firing.
	for firing := int64(1); firing <= 2; firing++ {
		out = e3.OnTimer(Timer{Kind: TimerProgress}, firing)
		retry := findBroadcast(t, out, KindRoundRequest)
		if retry.RoundRequest.FromRound != e3.DAG().HighestRound() {
			t.Fatalf("retry pulls from round %d, want the DAG frontier %d", retry.RoundRequest.FromRound, e3.DAG().HighestRound())
		}
		if len(out.Unicasts) != 0 {
			t.Fatalf("a rejoining engine's watchdog also sent %d unicasts", len(out.Unicasts))
		}
		rearmed := slices.ContainsFunc(out.Timers, func(tm Timer) bool { return tm.Kind == TimerProgress })
		if !rearmed {
			t.Fatal("the watchdog must re-arm itself")
		}
	}
	if got := e3.Stats().RejoinRequests; got != 3 {
		t.Fatalf("RejoinRequests = %d, want 3 (initial + two retries)", got)
	}

	// A second peer comes back and answers with no certificates: quorum
	// reached, handshake completes.
	empty := &CertResponse{FromRound: e3.DAG().HighestRound()}
	e3.OnMessage(1, &Message{Kind: KindCertResponse, CertResponse: empty}, 0)
	if e3.Rejoining() || e3.Stats().RejoinsCompleted != 1 {
		t.Fatalf("handshake must complete once quorum is reachable: %+v", e3.Stats())
	}
	// After completion the watchdog pulls only when the round is stuck, and
	// from one peer.
	for firing := int64(3); firing <= 4; firing++ {
		if out = e3.OnTimer(Timer{Kind: TimerProgress}, firing); len(out.Broadcasts) != 0 {
			t.Fatal("the watchdog must not re-broadcast the rejoin pull after completion")
		}
	}
}

// TestRejoinAdoptsSurvivingOwnCertificate models the trickiest recovery
// wrinkle: the restarting validator's pre-crash proposal for the fresh round
// CERTIFIED, and the certificate survived in a WAL. Proposing again (or
// re-broadcasting the replay-time header) would put two different
// certificates into one (round, source) slot and fork the DAG — the engine
// must adopt and re-broadcast the surviving certificate instead.
func TestRejoinAdoptsSurvivingOwnCertificate(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	var frontier []*Certificate
	for i := 0; i < 5; i++ {
		frontier = certifyRound(t, rig, nil)
	}
	// frontier holds the certificates of the last fully-certified round; the
	// engines now propose the next one. Certify v3's CURRENT proposal too by
	// routing votes back — this is the certificate that will "survive".
	e3 := rig.engines[3]
	target := e3.Round()
	hdr := &Message{Kind: KindHeader, Header: e3.curHeader}
	var ownCert *Certificate
	for j := 0; j < 3 && ownCert == nil; j++ {
		vout := rig.engines[j].OnMessage(3, hdr, 0)
		if len(vout.Unicasts) != 1 {
			continue
		}
		cout := e3.OnMessage(types.ValidatorID(j), vout.Unicasts[0].Msg, 0)
		for _, m := range cout.Broadcasts {
			if m.Kind == KindCertificate {
				ownCert = m.Cert
			}
		}
	}
	if ownCert == nil || ownCert.Header.Round != target {
		t.Fatalf("failed to certify v3's round-%d proposal", target)
	}
	_ = frontier

	// "Restart": the engine still holds its state (as after WAL replay — the
	// cert was persisted before the kill) and runs the handshake.
	out := e3.StartRejoin(0)
	req := findBroadcast(t, out, KindRoundRequest)
	e3.OnMessage(0, pullReplyFrom(t, rig, 0, 3, req), 0)
	out = e3.OnMessage(1, pullReplyFrom(t, rig, 1, 3, req), 0)
	if e3.Rejoining() {
		t.Fatal("handshake must complete at quorum")
	}
	var rebroadcast *Certificate
	for _, m := range out.Broadcasts {
		switch m.Kind {
		case KindHeader:
			if m.Header.Source == 3 && m.Header.Round == target {
				t.Fatalf("engine re-proposed round %d over its own surviving certificate", target)
			}
		case KindCertificate:
			if m.Cert.Header.Source == 3 && m.Cert.Header.Round == target {
				rebroadcast = m.Cert
			}
		}
	}
	if rebroadcast == nil {
		t.Fatal("engine must re-broadcast its surviving certificate")
	}
	if rebroadcast.Digest() != ownCert.Digest() {
		t.Fatal("re-broadcast certificate differs from the surviving one")
	}
	if e3.Round() < target {
		t.Fatalf("engine regressed to round %d, want >= %d", e3.Round(), target)
	}
}

// TestRejoinCountsParentPullReply: the rejoin pull is one round pull among
// others, and a reply to the pull for a missing parent counts toward the
// quorum like a reply to the rejoin pull: it covers the rounds from one the
// requester held on, the fresh round included.
func TestRejoinCountsParentPullReply(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	for i := 0; i < 3; i++ {
		certifyRound(t, rig, nil)
	}
	// v3 misses two rounds.
	certifyRound(t, rig, map[types.ValidatorID]bool{3: true})
	last := certifyRound(t, rig, map[types.ValidatorID]bool{3: true})
	e3 := rig.engines[3]
	held := e3.DAG().HighestRound()

	req := findBroadcast(t, e3.StartRejoin(0), KindRoundRequest)
	// v1's certificate of the last round arrives before its parents: v3
	// pulls them from v1.
	out := e3.OnMessage(1, &Message{Kind: KindCertificate, Cert: last[1]}, 0)
	pull := findUnicastTo(out, 1, KindRoundRequest)
	if pull == nil || pull.RoundRequest.FromRound > held {
		t.Fatalf("parent pull %v, want a RoundRequest to v1 from round %d at most", pull, held)
	}
	e3.OnMessage(0, pullReplyFrom(t, rig, 0, 3, req), 0)
	if !e3.Rejoining() {
		t.Fatal("self and one reply are below quorum")
	}
	e3.OnMessage(1, pullReplyFrom(t, rig, 1, 3, pull), 0)
	if e3.Rejoining() || e3.Stats().RejoinsCompleted != 1 {
		t.Fatal("the reply to the parent pull must complete the handshake")
	}
	if !e3.inDAG(last[1]) {
		t.Fatal("the pending certificate must insert once its parents came")
	}
}

// TestRejoinAdoptsPendingOwnCertificate: the restarting validator's own
// certificate for the fresh round survived in its log but still waits in its
// slot for a parent. The handshake adopts the round rather than proposing a
// conflicting header there, and the certificate inserts once the parent
// arrives.
func TestRejoinAdoptsPendingOwnCertificate(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTrace(t, committee, 6)
	at := func(r types.Round, s types.ValidatorID) *Certificate { return trace[int(r-1)*n+int(s)] }
	eng, _ := newTraceEngine(t, committee, nil)
	// Rounds 1 to 5 but (5, v3): round 5 holds a quorum, so the fresh round
	// is 6, and the own certificate of round 6 misses (5, v3).
	feedCerts(eng, trace[:4*n+3])
	own := at(6, 0)
	eng.OnRecorded(own, 0)
	if eng.pendingAt(6, 0) != own {
		t.Fatal("setup: the own certificate must pend")
	}

	var sent []*Message
	sent = append(sent, eng.StartRejoin(0).Broadcasts...)
	for _, peer := range []types.ValidatorID{1, 2} {
		out := eng.OnMessage(peer, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 5}}, 0)
		sent = append(sent, out.Broadcasts...)
	}
	if eng.Rejoining() {
		t.Fatal("handshake must complete at quorum")
	}
	if eng.Round() != 6 {
		t.Fatalf("engine at round %d, want the fresh round 6 adopted", eng.Round())
	}
	for _, m := range sent {
		if m.Kind == KindHeader && m.Header.Source == 0 && m.Header.Round <= 6 {
			t.Fatalf("engine proposed round %d over its own pending certificate", m.Header.Round)
		}
	}
	eng.OnMessage(3, &Message{Kind: KindCertificate, Cert: at(5, 3)}, 0)
	if !eng.inDAG(own) || eng.pendingAt(6, 0) != nil {
		t.Fatal("the own certificate must insert once its parent arrives")
	}
}

// TestRejoinLoneValidatorCompletesImmediately: a single-validator committee
// IS its own write quorum; the handshake must complete synchronously inside
// StartRejoin without waiting on peers that do not exist.
func TestRejoinLoneValidatorCompletesImmediately(t *testing.T) {
	rig := newTestRig(t, 1)
	rig.engines[0].Init(0)
	out := rig.engines[0].StartRejoin(0)
	if rig.engines[0].Rejoining() {
		t.Fatal("lone validator must complete rejoin immediately")
	}
	if got := rig.engines[0].Stats().RejoinsCompleted; got != 1 {
		t.Fatalf("RejoinsCompleted = %d, want 1", got)
	}
	for _, m := range out.Broadcasts {
		if m.Kind == KindRoundRequest {
			t.Fatal("lone validator must not broadcast a rejoin pull")
		}
	}
}

// isolateFor certifies rounds on every engine of the rig but id, which hears
// nothing: after about sixty, at the sync rig's GC depth, its peers have
// pruned the rounds it holds.
func isolateFor(t *testing.T, rig *testRig, id types.ValidatorID, rounds int) []*Certificate {
	t.Helper()
	var frontier []*Certificate
	for i := 0; i < rounds; i++ {
		frontier = certifyRound(t, rig, map[types.ValidatorID]bool{id: true})
	}
	if floor := rig.engines[frontier[0].Header.Source].rounds.Floor(); floor <= rig.engines[id].DAG().HighestRound() {
		t.Fatalf("after %d rounds the peers' floor %d is not above the isolated engine's DAG", rounds, floor)
	}
	return frontier
}

// TestRejoinResponseCarriesCheckpointOffer: a responder that pruned the
// rounds a rejoin pull asks for attaches its execution checkpoint to the
// reply, and a requester whose gap exceeds the GC horizon starts its snapshot
// fetch directly from the offer — the first SnapshotRequest is already pinned
// to the offered round and the seeded fetch completes.
func TestRejoinResponseCarriesCheckpointOffer(t *testing.T) {
	blob := chunkedBlob(3)
	serve := &stubSnapshots{meta: snapMeta(40, 20, blob), blob: blob, ok: true}
	rig, installers := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	requester := rig.engines[3]
	isolateFor(t, rig, 3, 64)

	out := requester.StartRejoin(0)
	req := findBroadcast(t, out, KindRoundRequest)

	resp := pullReplyFrom(t, rig, 0, 3, req)
	if resp.CertResponse.Offer == nil {
		t.Fatal("responder that pruned the pulled rounds must attach an offer")
	}
	if *resp.CertResponse.Offer != serve.meta {
		t.Fatalf("offer = %+v, want %+v", *resp.CertResponse.Offer, serve.meta)
	}
	// A pull from within the responder's retention gets no offer.
	within := &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: rig.engines[0].DAG().HighestRound()}}
	if r := pullReplyFrom(t, rig, 0, 3, within); r.CertResponse.Offer != nil {
		t.Fatal("a pull of retained rounds must not carry an offer")
	}

	// The offered round (40) sits far beyond the requester's GC horizon
	// (last ordered 0 + GCDepth 4): the fetch must start immediately, pinned.
	out = requester.OnMessage(0, resp, 0)
	snapReq := findUnicastTo(out, 0, KindSnapshotRequest)
	if snapReq == nil {
		t.Fatal("offer beyond the GC horizon must start a snapshot fetch")
	}
	if got := snapReq.SnapshotRequest.Round; got != serve.meta.Round {
		t.Fatalf("first snapshot request pinned round %d, want the offered %d", got, serve.meta.Round)
	}
	if snapReq.SnapshotRequest.Chunk != 0 {
		t.Fatalf("first snapshot request chunk = %d, want 0", snapReq.SnapshotRequest.Chunk)
	}

	// Drive the exchange to completion: the offer-seeded fetch must install.
	serveSnapshotLoop(t, rig, requester, out, nil)
	if installers[3].installs != 1 {
		t.Fatalf("installs = %d, want 1", installers[3].installs)
	}
	if got := requester.Stats().SnapshotInstalls; got != 1 {
		t.Fatalf("SnapshotInstalls = %d, want 1", got)
	}
}

// TestRejoinOfferNearFrontierIgnored: an offer within the GC horizon must not
// trigger a snapshot fetch — certificate sync is cheaper and sufficient.
func TestRejoinOfferNearFrontierIgnored(t *testing.T) {
	blob := []byte("tiny")
	serve := &stubSnapshots{meta: snapMeta(3, 2, blob), blob: blob, ok: true}
	rig, _ := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	requester := rig.engines[3]
	isolateFor(t, rig, 3, 64)
	out := requester.StartRejoin(0)
	req := findBroadcast(t, out, KindRoundRequest)
	resp := pullReplyFrom(t, rig, 0, 3, req)
	if resp.CertResponse.Offer == nil {
		t.Fatal("responder that pruned the pulled rounds must attach an offer")
	}
	out = requester.OnMessage(0, resp, 0)
	if m := findUnicastTo(out, 0, KindSnapshotRequest); m != nil {
		t.Fatalf("offer within the GC horizon started a fetch: %v", m)
	}
}

// TestRestoreProposalRetransmitsIdenticalHeader is the WAL-tail
// slot-equivocation regression: a restarted validator whose pre-crash
// proposal was recorded re-adopts the IDENTICAL header and re-transmits it at
// rejoin completion instead of building a fresh (digest-conflicting) one for
// the same slot.
func TestRestoreProposalRetransmitsIdenticalHeader(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	var replayCerts []*Certificate
	for i := 0; i < 4; i++ {
		replayCerts = append(replayCerts, certifyRound(t, rig, nil)...)
	}
	e3 := rig.engines[3]
	preHeader := e3.CurrentProposal()
	if preHeader == nil {
		t.Fatal("engine 3 has no live proposal")
	}
	preDigest := preHeader.Digest()
	preRound := preHeader.Round

	// "Restart": a fresh engine with the same identity replays the recorded
	// certificates, then restores the recorded proposal.
	rig2 := newTestRig(t, 4)
	e3r := rig2.engines[3]
	e3r.Init(0)
	for _, c := range replayCerts {
		e3r.OnMessage(3, &Message{Kind: KindCertificate, Cert: c}, 0)
	}
	e3r.RestoreProposal(preHeader)
	if got := e3r.ProposalFloor(); got != preRound {
		t.Fatalf("proposal floor = %d, want %d", got, preRound)
	}
	if got := e3r.CurrentProposal(); got == nil || got.Digest() != preDigest {
		t.Fatal("restored engine did not re-adopt the recorded header")
	}

	// Complete the rejoin handshake against live peers: the output must carry
	// the IDENTICAL header (retransmit), not a fresh proposal.
	proposedBefore := e3r.Stats().HeadersProposed
	out := e3r.StartRejoin(0)
	req := findBroadcast(t, out, KindRoundRequest)
	for _, from := range []types.ValidatorID{0, 1} {
		resp := pullReplyFrom(t, rig, from, 3, req)
		out = e3r.OnMessage(from, resp, 0)
	}
	if e3r.Rejoining() {
		t.Fatal("handshake did not complete at quorum")
	}
	hdr := findBroadcast(t, out, KindHeader)
	if hdr.Header.Digest() != preDigest {
		t.Fatalf("re-transmitted header digest %s, want the recorded proposal's %s — the slot was equivocated",
			hdr.Header.Digest(), preDigest)
	}
	if got := e3r.Stats().HeadersProposed; got != proposedBefore {
		t.Fatalf("rejoin built %d fresh proposals for an already-signed slot", got-proposedBefore)
	}
	// Peers that voted pre-crash accept the re-transmit (same digest passes
	// their votedFor check) — it must not count as an equivocation.
	invalidBefore := rig.engines[0].Stats().InvalidMessages
	rig.engines[0].OnMessage(3, &Message{Kind: KindHeader, Header: hdr.Header}, 0)
	if got := rig.engines[0].Stats().InvalidMessages; got != invalidBefore {
		t.Fatal("peer rejected the re-transmitted header as conflicting")
	}
}

// TestProposalFloorRefusesNewHeader unit-tests the enforcement backstop:
// propose() at or below the restored voted-round mark forfeits the slot
// instead of constructing a second header for it.
func TestProposalFloorRefusesNewHeader(t *testing.T) {
	rig := newTestRig(t, 4)
	e := rig.engines[0]
	e.Init(0)
	e.proposalFloor = e.round + 1
	before := e.stats.HeadersProposed

	out := &Output{}
	e.propose(e.round+1, 0, out)
	if len(out.Broadcasts) != 0 {
		t.Fatalf("propose at the floor broadcast %d messages, want forfeit", len(out.Broadcasts))
	}
	if e.stats.HeadersProposed != before {
		t.Fatal("propose at the floor built a header")
	}
	if e.round != e.proposalFloor || e.curHeader != nil || !e.ownCertFormed {
		t.Fatalf("slot not forfeited: round=%d curHeader=%v ownCertFormed=%v", e.round, e.curHeader, e.ownCertFormed)
	}

	// Strictly above the floor, proposing resumes.
	out = &Output{}
	e.propose(e.round+1, 0, out)
	if e.stats.HeadersProposed != before+1 {
		t.Fatal("propose above the floor did not build a header")
	}
}
