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

func TestPendingCertTriggersSyncRequest(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	// Round 1 certifies normally, but engine 3 misses every round-1 cert.
	round1 := certifyRound(t, rig, map[types.ValidatorID]bool{3: true})

	// Engines 0..2 advance to round 2 and certify; deliver a round-2 cert
	// to engine 3: its parents are unknown there, so it must pend and ask
	// the source for them.
	round2 := certifyRound(t, rig, map[types.ValidatorID]bool{3: true})
	e3 := rig.engines[3]
	out := e3.OnMessage(0, &Message{Kind: KindCertificate, Cert: round2[0]}, 0)
	var req *Message
	for _, u := range out.Unicasts {
		if u.Msg.Kind == KindCertRequest {
			req = u.Msg
			if u.To != round2[0].Header.Source {
				t.Fatalf("sync request sent to %s, want the cert source %s", u.To, round2[0].Header.Source)
			}
		}
	}
	if req == nil {
		t.Fatal("missing parents must trigger a CertRequest")
	}
	if e3.Stats().CertsPended != 1 {
		t.Fatalf("CertsPended = %d, want 1", e3.Stats().CertsPended)
	}

	// The source serves the request; the response unblocks the pended cert.
	resp := rig.engines[0].OnMessage(3, req, 0)
	if len(resp.Unicasts) != 1 || resp.Unicasts[0].Msg.Kind != KindCertResponse {
		t.Fatalf("source response = %+v, want one CertResponse", resp.Unicasts)
	}
	e3.OnMessage(0, resp.Unicasts[0].Msg, 0)
	for _, c := range round1 {
		if _, ok := e3.DAG().ByDigest(c.Digest()); !ok {
			t.Fatalf("round-1 cert %s not inserted after sync", c.Digest())
		}
	}
	if _, ok := e3.DAG().ByDigest(round2[0].Digest()); !ok {
		t.Fatal("pended round-2 cert must cascade in after its parents")
	}
}

// TestCertRequestWorkIsBounded: a CertRequest buys at most MaxSyncBatch digest
// lookups however many digests its frame carries — the ones after the cap go
// unread, retained or not — and the engine's own requests stay inside that
// cap, so a node missing more parents than one request may name still
// recovers every one of them, from the one peer it asked.
func TestCertRequestWorkIsBounded(t *testing.T) {
	const n, batch = 10, 3
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	small := func(c *Config) { c.MaxSyncBatch = batch }
	trace := buildCertTrace(t, committee, 2)
	round1, child := trace[:n:n], trace[n+4]
	peer, _ := newTraceEngine(t, committee, small)
	feedCerts(peer, trace)

	serve := func(req *Message) []*Certificate {
		return certResponse(peer.OnMessage(1, req, 0))
	}
	request := func(digests ...[]types.Digest) *Message {
		return &Message{Kind: KindCertRequest, CertRequest: &CertRequest{Digests: slices.Concat(digests...)}}
	}
	var garbage, retained []types.Digest
	for i := range 4 * batch {
		garbage = append(garbage, types.HashBytes([]byte{'g', byte(i)}))
	}
	for _, c := range round1 {
		retained = append(retained, c.Digest())
	}
	if got := serve(request(garbage, retained)); len(got) != 0 {
		t.Fatalf("%d garbage digests, then retained ones: served %d certificates, want none", len(garbage), len(got))
	}
	if got := serve(request(garbage[:batch-1], retained)); len(got) != 1 || got[0].Digest() != retained[0] {
		t.Fatalf("%d garbage digests, then retained ones: served %d certificates, want exactly the first retained one", batch-1, len(got))
	}
	if got := serve(request(retained)); len(got) != batch || got[0].Digest() != retained[0] || got[batch-1].Digest() != retained[batch-1] {
		t.Fatalf("retained digests only: served %d certificates, want the first %d", len(got), batch)
	}

	// A node holding none of round 1 receives a round-2 certificate: it
	// misses all n parents and asks the certificate's source for them.
	node, _ := newTraceEngine(t, committee, small)
	checkRequests := func(what string, out *Output) []*Message {
		t.Helper()
		var reqs []*Message
		asked := map[types.Digest]bool{}
		for _, u := range out.Unicasts {
			if u.Msg.Kind != KindCertRequest {
				continue
			}
			if ds := u.Msg.CertRequest.Digests; len(ds) > batch {
				t.Fatalf("%s: a request names %d digests, more than MaxSyncBatch = %d", what, len(ds), batch)
			}
			for _, d := range u.Msg.CertRequest.Digests {
				asked[d] = true
			}
			reqs = append(reqs, u.Msg)
		}
		for _, d := range retained {
			if !asked[d] {
				t.Fatalf("%s: missing parent %s never requested", what, d)
			}
		}
		return reqs
	}
	reqs := checkRequests("on arrival", node.OnMessage(child.Header.Source, &Message{Kind: KindCertificate, Cert: child}, 0))
	checkRequests("resync", node.OnTimer(Timer{Kind: TimerResync}, 0))
	for _, req := range reqs {
		node.OnMessage(child.Header.Source, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: serve(req)}}, 0)
	}
	for _, c := range append(round1, child) {
		if !node.inDAG(c) {
			t.Fatalf("certificate (%d, %s) not inserted after the chunked requests were served", c.Header.Round, c.Header.Source)
		}
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
		for _, u := range out.Unicasts {
			if u.Msg.Kind == KindCertRequest {
				t.Fatalf("%s: sent a CertRequest for %d digests", what, len(u.Msg.CertRequest.Digests))
			}
		}
		if d.HighestRound() != top || d.VertexCount() != vertices {
			t.Fatalf("%s: DAG top %d with %d vertices, was %d with %d", what, d.HighestRound(), d.VertexCount(), top, vertices)
		}
	}
}

func TestRoundRequestServesFrontier(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	certifyRound(t, rig, nil)
	certifyRound(t, rig, nil)

	out := rig.engines[0].OnMessage(2, &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: 1}}, 0)
	if len(out.Unicasts) != 1 || out.Unicasts[0].Msg.Kind != KindCertResponse {
		t.Fatalf("round request must earn a CertResponse, got %+v", out.Unicasts)
	}
	certs := out.Unicasts[0].Msg.CertResponse.Certs
	if len(certs) < 4 {
		t.Fatalf("frontier response has %d certs, want >= 4 (one full round)", len(certs))
	}
	for i := 1; i < len(certs); i++ {
		if certs[i-1].Header.Round > certs[i].Header.Round {
			t.Fatal("frontier response must be ascending by round (parents first)")
		}
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
			if u.Msg.Kind != KindCertRequest {
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
