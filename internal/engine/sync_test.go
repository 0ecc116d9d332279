package engine

import (
	"slices"
	"testing"

	"hammerhead/internal/types"
)

// certifyRound drives rig engines through one full round exchange: every
// engine's current header is voted on by all peers and the resulting
// certificates are delivered everywhere except to the engines listed in
// skipDelivery. Returns the certificates formed.
func certifyRound(t *testing.T, rig *testRig, skipDelivery map[types.ValidatorID]bool) []*Certificate {
	t.Helper()
	n := len(rig.engines)
	var certs []*Certificate
	for i := 0; i < n; i++ {
		if skipDelivery[types.ValidatorID(i)] {
			continue // isolated engines neither propose nor certify
		}
		proposer := rig.engines[i]
		if proposer.curHeader == nil {
			t.Fatalf("engine %d has no current header", i)
		}
		hdr := &Message{Kind: KindHeader, Header: proposer.curHeader}
		var cert *Certificate
		for j := 0; j < n && cert == nil; j++ {
			if j == i {
				continue
			}
			vout := rig.engines[j].OnMessage(types.ValidatorID(i), hdr, 0)
			if len(vout.Unicasts) != 1 {
				continue
			}
			cout := proposer.OnMessage(types.ValidatorID(j), vout.Unicasts[0].Msg, 0)
			for _, m := range cout.Broadcasts {
				if m.Kind == KindCertificate {
					cert = m.Cert
				}
			}
		}
		if cert == nil {
			t.Fatalf("engine %d never certified", i)
		}
		certs = append(certs, cert)
	}
	// Deliver certificates, then fire each engine's round-delay timer so it
	// may advance to the next round (the test is synchronous; no runtime
	// delivers timers for us).
	for i, cert := range certs {
		for j := 0; j < n; j++ {
			if j == i || skipDelivery[types.ValidatorID(j)] {
				continue
			}
			rig.engines[j].OnMessage(types.ValidatorID(i), &Message{Kind: KindCertificate, Cert: cert}, 0)
		}
	}
	for j := 0; j < n; j++ {
		if skipDelivery[types.ValidatorID(j)] {
			continue
		}
		e := rig.engines[j]
		e.OnTimer(Timer{Kind: TimerRoundDelay, Round: uint64(e.Round())}, 0)
		// If the round's scheduled leader is an isolated engine, the
		// leader-wait blocks; expire it as the runtime's timer would.
		e.OnTimer(Timer{Kind: TimerLeader, Round: uint64(e.Round())}, 0)
	}
	return certs
}

// TestPendingCertTriggersSyncRequest: a certificate that arrives before its
// parents pends in its slot and pulls them, by round, from its source at
// once: edges point one round back, so a pull from the round below returns
// every parent it misses. The reply inserts them, and their insertion
// retries the pending certificate.
func TestPendingCertTriggersSyncRequest(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	// Round 1 certifies normally, but engine 3 hears only engine 1's
	// certificate of it.
	round1 := certifyRound(t, rig, map[types.ValidatorID]bool{3: true})
	e3 := rig.engines[3]
	e3.OnMessage(1, &Message{Kind: KindCertificate, Cert: round1[1]}, 0)

	// Engines 0..2 advance to round 2 and certify; deliver a round-2 cert
	// to engine 3: most of its parents are unknown there, so it must pend
	// and pull them from its source.
	round2 := certifyRound(t, rig, map[types.ValidatorID]bool{3: true})
	child := round2[0]
	out := e3.OnMessage(0, &Message{Kind: KindCertificate, Cert: child}, 0)
	var req *Message
	for _, u := range out.Unicasts {
		if u.Msg.Kind == KindRoundRequest {
			req = u.Msg
			if u.To != child.Header.Source {
				t.Fatalf("sync request sent to %s, want the cert source %s", u.To, child.Header.Source)
			}
		}
	}
	if req == nil || req.RoundRequest.FromRound != 1 {
		t.Fatalf("missing parents must trigger a RoundRequest{FromRound: 1}, got %v", req)
	}
	if e3.Stats().CertsPended != 1 || e3.pendingAt(2, child.Header.Source) != child {
		t.Fatalf("CertsPended = %d, want 1, in its slot", e3.Stats().CertsPended)
	}

	// The source serves the request; the response unblocks the pended cert.
	resp := rig.engines[0].OnMessage(3, req, 0)
	if len(resp.Unicasts) != 1 || resp.Unicasts[0].Msg.Kind != KindCertResponse {
		t.Fatalf("source response = %+v, want one CertResponse", resp.Unicasts)
	}
	// Only the parents: the cascade, not the reply's copy, inserts the child.
	reply := resp.Unicasts[0].Msg.CertResponse
	parents := slices.DeleteFunc(slices.Clone(reply.Certs), func(c *Certificate) bool { return c.Header.Round != 1 })
	e3.OnMessage(0, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: reply.FromRound, Certs: parents}}, 0)
	for _, c := range round1 {
		if !e3.inDAG(c) {
			t.Fatalf("round-1 cert %s not inserted after sync", c.Digest())
		}
	}
	if !e3.inDAG(child) || e3.SyncBacklog() != 0 {
		t.Fatal("pended round-2 cert must cascade in after its parents")
	}
}

// TestFirstPullIsNotHeldBack: the pull's rate limit holds back a pull that
// repeats the previous one's round within a resync interval, and nothing
// else. An engine whose floor is still 0, isolated since genesis, receives
// a frontier certificate at time 0: its first pull goes out at once.
func TestFirstPullIsNotHeldBack(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTrace(t, committee, 12)
	frontier := trace[len(trace)-1]
	eng, _ := newTraceEngine(t, committee, nil)
	out := eng.OnMessage(frontier.Header.Source, &Message{Kind: KindCertificate, Cert: frontier}, 0)
	for _, u := range out.Unicasts {
		if u.Msg.Kind == KindRoundRequest && u.Msg.RoundRequest.FromRound == 0 {
			return
		}
	}
	t.Fatalf("a frontier certificate at time 0 sent no RoundRequest from round 0: %d unicasts", len(out.Unicasts))
}

// TestCertRequestWorkIsBounded (named for the digest pull the round pull
// replaced): a reply holds at most syncBatch certificates however much the
// responder holds from the pulled round on, and a node holding none of round
// 1 recovers all of it, and the child that pended on it, from one capped
// reply — then pulls on from where the reply stopped, since a full reply was
// cut short of the responder's frontier.
func TestCertRequestWorkIsBounded(t *testing.T) {
	const n = 10
	const batch = n + 5 // round 1 and sources 0 to 4 of round 2
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTrace(t, committee, 3)
	round1, child := trace[:n:n], trace[n+4]
	peer, _ := newTraceEngine(t, committee, nil)
	peer.syncBatch = batch
	feedCerts(peer, trace)

	// A node holding none of round 1 receives a round-2 certificate: it
	// misses all n parents and pulls them from the certificate's source.
	node, _ := newTraceEngine(t, committee, nil)
	node.syncBatch = batch
	out := node.OnMessage(child.Header.Source, &Message{Kind: KindCertificate, Cert: child}, 0)
	if len(out.Unicasts) != 1 {
		t.Fatalf("a pending certificate sent %d pulls, want 1", len(out.Unicasts))
	}
	u := out.Unicasts[0]
	if u.To != child.Header.Source || u.Msg.Kind != KindRoundRequest || u.Msg.RoundRequest.FromRound != 0 {
		t.Fatalf("pull %s to %s, want a RoundRequest from round 0 to the source %s", u.Msg, u.To, child.Header.Source)
	}
	certs := certResponse(peer.OnMessage(1, u.Msg, 0))
	if len(certs) != batch {
		t.Fatalf("the reply holds %d certificates, want it capped at %d", len(certs), batch)
	}
	out = node.OnMessage(u.To, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: certs}}, 0)
	for _, c := range append(round1, child) {
		if !node.inDAG(c) {
			t.Fatalf("certificate (%d, %s) not inserted from the capped reply", c.Header.Round, c.Header.Source)
		}
	}
	if len(out.Unicasts) != 1 || out.Unicasts[0].To != u.To || out.Unicasts[0].Msg.RoundRequest == nil ||
		out.Unicasts[0].Msg.RoundRequest.FromRound != 2 {
		t.Fatalf("after a full reply the node sent %+v, want one RoundRequest from round 2 to the same peer", out.Unicasts)
	}
}

// TestEdgelessFarCertificateIsRefused: a certificate whose header names no
// parents, voted by a quorum, at a round far above everything: it used to
// insert and open a thousand-round window. Above the floor a vertex needs a
// quorum of parents, so it is an invalid message and nothing moves.
func TestEdgelessFarCertificateIsRefused(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)
	feedCerts(eng, buildCertTrace(t, committee, 6))
	d := eng.DAG()
	top, floor, vertices, end := d.HighestRound(), d.PrunedTo(), d.VertexCount(), eng.rounds.End()
	far := &Certificate{Header: Header{Round: floor + 1000, Source: 2}}
	for j := range 4 {
		far.Votes = append(far.Votes, VoteSig{Voter: types.ValidatorID(j)})
	}
	invalid := eng.Stats().InvalidMessages
	eng.OnMessage(2, &Message{Kind: KindCertificate, Cert: far}, 0)
	if got := eng.Stats().InvalidMessages - invalid; got != 1 {
		t.Fatalf("InvalidMessages moved by %d, want 1", got)
	}
	if d.HighestRound() != top || d.PrunedTo() != floor || d.VertexCount() != vertices || eng.rounds.End() != end {
		t.Fatalf("DAG rounds [%d, %d] with %d vertices, engine window end %d; was [%d, %d], %d, %d",
			d.PrunedTo(), d.HighestRound(), d.VertexCount(), eng.rounds.End(), floor, top, vertices, end)
	}
}

// TestOverlongEdgeListIsRefused: the wire bounds a header's edge list only by
// the frame size, and voters do not look at it, so a Byzantine member can get
// a header with millions of edges certified. A vertex names at most one parent
// per member: a certificate listing more — one parent twice, or a flood of
// garbage that would each cost a scan of the DAG and then a digest to fetch —
// is an invalid message, refused before any edge is resolved or requested.
func TestOverlongEdgeListIsRefused(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTrace(t, committee, 6)
	eng, _ := newTraceEngine(t, committee, nil)
	feedCerts(eng, trace)
	var parents []types.Digest
	for _, c := range trace[len(trace)-n:] {
		parents = append(parents, c.Digest())
	}
	garbage := make([]types.Digest, 50000)
	for i := range garbage {
		garbage[i] = types.HashBytes([]byte{'g', byte(i), byte(i >> 8)})
	}
	d := eng.DAG()
	top, vertices := d.HighestRound(), d.VertexCount()
	for what, edges := range map[string][]types.Digest{
		"n+1 edges, one parent twice": append(slices.Clone(parents), parents[1]),
		"every parent, then garbage":  append(slices.Clone(parents), garbage...),
	} {
		c := &Certificate{Header: Header{Round: top + 1, Source: 2, Edges: edges}}
		for j := range n {
			c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(j)})
		}
		invalid := eng.Stats().InvalidMessages
		out := eng.OnMessage(2, &Message{Kind: KindCertificate, Cert: c}, 0)
		if got := eng.Stats().InvalidMessages - invalid; got != 1 {
			t.Fatalf("%s: InvalidMessages moved by %d, want 1", what, got)
		}
		if len(out.Unicasts) != 0 {
			t.Fatalf("%s: sent %d requests", what, len(out.Unicasts))
		}
		if d.HighestRound() != top || d.VertexCount() != vertices {
			t.Fatalf("%s: DAG top %d with %d vertices, was %d with %d", what, d.HighestRound(), d.VertexCount(), top, vertices)
		}
	}
}

// TestRoundRequestServesFrontier: a round pull earns one CertResponse that
// names the pulled round and holds the frontier from it on, parents first;
// a pull above everything the responder holds is still answered, empty; and
// a responder without a checkpoint offers none.
func TestRoundRequestServesFrontier(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	certifyRound(t, rig, nil)
	certifyRound(t, rig, nil)

	pull := func(from types.Round) *CertResponse {
		t.Helper()
		out := rig.engines[0].OnMessage(2, &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: from}}, 0)
		if len(out.Unicasts) != 1 || out.Unicasts[0].To != 2 || out.Unicasts[0].Msg.Kind != KindCertResponse {
			t.Fatalf("round request must earn one CertResponse, got %+v", out.Unicasts)
		}
		resp := out.Unicasts[0].Msg.CertResponse
		if resp.FromRound != from || resp.Offer != nil {
			t.Fatalf("pull from round %d answered from %d, offer %v", from, resp.FromRound, resp.Offer)
		}
		return resp
	}
	certs := pull(1).Certs
	if len(certs) < 4 {
		t.Fatalf("frontier response has %d certs, want >= 4 (one full round)", len(certs))
	}
	for i := 1; i < len(certs); i++ {
		if certs[i-1].Header.Round > certs[i].Header.Round {
			t.Fatal("frontier response must be ascending by round (parents first)")
		}
	}
	if got := pull(rig.engines[0].DAG().HighestRound() + 1).Certs; len(got) != 0 {
		t.Fatalf("a pull above the DAG served %d certificates", len(got))
	}
}

func TestProgressTimerPullsWhenStuck(t *testing.T) {
	rig := newTestRig(t, 4)
	init := rig.engines[0].Init(0)
	var progress *Timer
	for i := range init.Timers {
		if init.Timers[i].Kind == TimerProgress {
			progress = &init.Timers[i]
		}
	}
	if progress == nil {
		t.Fatal("Init must arm the progress watchdog")
	}
	// First firing records the round; no progress since Init means the
	// second firing must pull.
	out := rig.engines[0].OnTimer(*progress, 0)
	out2 := rig.engines[0].OnTimer(*progress, 0)
	combined := append(out.Unicasts, out2.Unicasts...)
	var pulled bool
	for _, u := range combined {
		if u.Msg.Kind == KindRoundRequest {
			pulled = true
			if u.To == 0 {
				t.Fatal("must not pull from self")
			}
		}
	}
	if !pulled {
		t.Fatal("stuck engine must send a RoundRequest")
	}
	// The watchdog re-arms itself every firing.
	rearms := 0
	for _, tm := range append(out.Timers, out2.Timers...) {
		if tm.Kind == TimerProgress {
			rearms++
		}
	}
	if rearms != 2 {
		t.Fatalf("progress watchdog re-armed %d times, want 2", rearms)
	}
}

func TestCatchUpJumpSkipsToFrontier(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	// Engines 0..2 run 8 rounds ahead while 3 hears nothing.
	skip := map[types.ValidatorID]bool{3: true}
	var lastRound []*Certificate
	for r := 0; r < 8; r++ {
		lastRound = certifyRound(t, rig, skip)
	}
	e3 := rig.engines[3]
	if e3.Round() != 1 {
		t.Fatalf("isolated engine advanced to %d", e3.Round())
	}
	// A frontier cert arrives; sync fills the history; the engine must jump
	// near the frontier rather than replaying one round per MinRoundDelay.
	out := e3.OnMessage(0, &Message{Kind: KindCertificate, Cert: lastRound[0]}, 0)
	// Serve every sync request until quiescent.
	for len(out.Unicasts) > 0 {
		var next []Unicast
		for _, u := range out.Unicasts {
			if u.Msg.Kind != KindRoundRequest {
				continue
			}
			resp := rig.engines[u.To].OnMessage(3, u.Msg, 0)
			for _, ru := range resp.Unicasts {
				o := e3.OnMessage(u.To, ru.Msg, 0)
				next = append(next, o.Unicasts...)
			}
		}
		out = &Output{Unicasts: next}
	}
	if e3.Round() < 7 {
		t.Fatalf("engine stuck at round %d after sync; catch-up jump failed", e3.Round())
	}
}
