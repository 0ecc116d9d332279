package engine

import (
	"testing"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// nilBatches is a BatchProvider returning empty batches.
type nilBatches struct{}

func (nilBatches) NextBatch(int64, int) *types.Batch { return nil }
func (nilBatches) Pending() int                      { return 0 }

// commitCollector is a CommitSink recording deliveries in order.
type commitCollector struct {
	subs []bullshark.CommittedSubDAG
}

func (c *commitCollector) DeliverCommit(sub bullshark.CommittedSubDAG) {
	c.subs = append(c.subs, sub)
}

// testRig builds n engines sharing a committee and key set, with signature
// verification on (insecure scheme: cheap but checked). commits[i] records
// engine i's sink deliveries.
type testRig struct {
	committee *types.Committee
	engines   []*Engine
	commits   []*commitCollector
}

func newTestRig(t *testing.T, n int) *testRig {
	t.Helper()
	return newSchemeRig(t, n, crypto.Insecure{})
}

// newSchemeRig is newTestRig over another scheme: a wrapper of Insecure that
// counts verifications, say, which the engines' pre-verify stages then use.
func newSchemeRig(t *testing.T, n int, scheme crypto.Scheme) *testRig {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	var seed [32]byte
	pubKeys := make([]crypto.PublicKey, n)
	pairs := make([]crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(scheme, seed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = kp
		pubKeys[i] = kp.Public
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	rig := &testRig{committee: committee}
	for i := 0; i < n; i++ {
		d := dag.New(committee)
		collector := &commitCollector{}
		eng, err := New(Params{
			Config:     cfg,
			Committee:  committee,
			Self:       types.ValidatorID(i),
			Keys:       pairs[i],
			PublicKeys: pubKeys,
			Batches:    nilBatches{},
			Scheduler:  leader.NewRoundRobin(committee, 1),
			DAG:        d,
			Commits:    collector,
			Execution:  &stubExec{},
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.engines = append(rig.engines, eng)
		rig.commits = append(rig.commits, collector)
	}
	return rig
}

func findBroadcast(t *testing.T, out *Output, kind MessageKind) *Message {
	t.Helper()
	for _, m := range out.Broadcasts {
		if m.Kind == kind {
			return m
		}
	}
	t.Fatalf("no %s broadcast in output (have %d broadcasts)", kind, len(out.Broadcasts))
	return nil
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(*Config) {}, false},
		{"zero leader timeout", func(c *Config) { c.LeaderTimeout = 0 }, true},
		{"zero batch", func(c *Config) { c.MaxBatchTx = 0 }, true},
		{"zero gc", func(c *Config) { c.GCDepth = 0 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	rig := newTestRig(t, 4)
	base := Params{
		Config:    DefaultConfig(),
		Committee: rig.committee,
		Self:      99, // not in committee
		Batches:   nilBatches{},
		Scheduler: leader.NewRoundRobin(rig.committee, 1),
		DAG:       dag.New(rig.committee),
		Execution: &stubExec{},
	}
	base.Config.VerifySignatures = false
	if _, err := New(base); err == nil {
		t.Fatal("self outside committee must be rejected")
	}
	base.Self = 0
	base.DAG = nil
	if _, err := New(base); err == nil {
		t.Fatal("missing DAG must be rejected")
	}
	base.DAG = dag.New(rig.committee)
	base.Execution = nil
	if _, err := New(base); err == nil {
		t.Fatal("missing execution layer must be rejected")
	}
	// A round pull's reply holds at most maxSyncBatch certificates, and it is
	// the only way to fetch a missing parent: every round must fit in one.
	base.Execution = &stubExec{}
	for _, n := range []int{maxSyncBatch, maxSyncBatch + 1} {
		committee, err := types.NewEqualStakeCommittee(n)
		if err != nil {
			t.Fatal(err)
		}
		base.Committee, base.DAG, base.Scheduler = committee, dag.New(committee), leader.NewRoundRobin(committee, 1)
		if _, err := New(base); (err == nil) != (n <= maxSyncBatch) {
			t.Fatalf("committee of %d (a reply holds %d certificates): New returned %v", n, maxSyncBatch, err)
		}
	}
}

func TestInitProposesRoundOne(t *testing.T) {
	rig := newTestRig(t, 4)
	out := rig.engines[0].Init(0)
	hdr := findBroadcast(t, out, KindHeader)
	if hdr.Header.Round != 1 {
		t.Fatalf("proposed round %d, want 1", hdr.Header.Round)
	}
	if len(hdr.Header.Edges) != 4 {
		t.Fatalf("header references %d genesis parents, want 4", len(hdr.Header.Edges))
	}
	if rig.engines[0].Round() != 1 {
		t.Fatalf("engine round = %d, want 1", rig.engines[0].Round())
	}
	// Genesis inserted for everyone.
	if rig.engines[0].DAG().RoundStake(0) != 4 {
		t.Fatal("genesis round incomplete")
	}
}

func TestHeaderVoteCertificateFlow(t *testing.T) {
	rig := newTestRig(t, 4)
	outs := make([]*Output, 4)
	for i := range rig.engines {
		outs[i] = rig.engines[i].Init(0)
	}
	hdr := findBroadcast(t, outs[0], KindHeader)

	// Peers vote for v0's header.
	var votes []*Message
	for i := 1; i < 4; i++ {
		out := rig.engines[i].OnMessage(0, hdr, 0)
		if len(out.Unicasts) != 1 || out.Unicasts[0].To != 0 {
			t.Fatalf("engine %d: want one vote to v0, got %+v", i, out.Unicasts)
		}
		votes = append(votes, out.Unicasts[0].Msg)
	}

	// First vote (plus self-vote) is below quorum (3 of 4 stake).
	out := rig.engines[0].OnMessage(1, votes[0], 0)
	if len(out.Broadcasts) != 0 {
		t.Fatal("certificate must not form below quorum")
	}
	// Second vote completes the quorum: certificate broadcast + inserted.
	out = rig.engines[0].OnMessage(2, votes[1], 0)
	cert := findBroadcast(t, out, KindCertificate)
	if cert.Cert.Header.Round != 1 || cert.Cert.Header.Source != 0 {
		t.Fatalf("cert for %v, want (1, v0)", cert.Cert.Header)
	}
	if _, ok := rig.engines[0].DAG().Get(1, 0); !ok {
		t.Fatal("own certificate must be inserted locally")
	}
	// Third vote after certification is ignored.
	out = rig.engines[0].OnMessage(3, votes[2], 0)
	if len(out.Broadcasts) != 0 && len(out.Unicasts) != 0 {
		t.Fatal("votes after certification must be no-ops")
	}
}

func TestEquivocatingHeaderRefused(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	e1 := rig.engines[1]

	// Build two conflicting round-1 headers (distinct payloads, hence
	// distinct digests) signed by v0's key.
	mk := func(txID uint64) *Message {
		parents := rig.engines[0].DAG().RoundVertices(0)
		edges := make([]types.Digest, len(parents))
		for i, p := range parents {
			edges[i] = p.Digest()
		}
		h := &Header{Round: 1, Source: 0, Edges: edges,
			Batch: &types.Batch{Transactions: []types.Transaction{{ID: txID}}}}
		d := h.Digest()
		sig, err := rig.engines[0].keys.Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		h.Signature = sig
		return &Message{Kind: KindHeader, Header: h}
	}
	h1, h2 := mk(1), mk(2)
	out := e1.OnMessage(0, h1, 0)
	if len(out.Unicasts) != 1 {
		t.Fatal("first header must earn a vote")
	}
	before := e1.Stats().InvalidMessages
	out = e1.OnMessage(0, h2, 0)
	if len(out.Unicasts) != 0 {
		t.Fatal("conflicting header for a voted slot must not earn a vote")
	}
	if e1.Stats().InvalidMessages != before+1 {
		t.Fatal("equivocation must be counted invalid")
	}
	// Re-sending the SAME header re-sends the same vote (retransmit path).
	out = e1.OnMessage(0, h1, 0)
	if len(out.Unicasts) != 1 {
		t.Fatal("duplicate identical header must re-earn the idempotent vote")
	}
}

// headerAt wraps a parentless header of source at round, signed with source's
// key: all a voter checks before it votes.
func headerAt(t *testing.T, rig *testRig, source types.ValidatorID, round types.Round) *Message {
	t.Helper()
	return &Message{Kind: KindHeader, Header: signedHeader(t, rig.engines[source].keys, source, round)}
}

// expectVote feeds a header to e and requires a vote, or a counted refusal.
func expectVote(t *testing.T, e *Engine, msg *Message, want bool) {
	t.Helper()
	before := e.Stats()
	out := e.OnMessage(msg.Header.Source, msg, 0)
	after := e.Stats()
	voted := len(out.Unicasts) == 1 && out.Unicasts[0].Msg.Kind == KindVote
	if voted != want || (after.VotesSent != before.VotesSent) != want {
		t.Fatalf("header at round %d: voted %v, want %v", msg.Header.Round, voted, want)
	}
	if !want && (len(out.Unicasts) != 0 || after.InvalidMessages != before.InvalidMessages+1) {
		t.Fatalf("header at round %d: a refusal sends nothing and counts one invalid message, got %d unicasts, %d counted",
			msg.Header.Round, len(out.Unicasts), after.InvalidMessages-before.InvalidMessages)
	}
}

// TestFarFutureHeaderIsRefused: one committee member sending headers at rounds
// 10⁹, 10⁹+1, … used to earn a vote, and a vote record no pruning floor would
// ever reach, for each. Voting stops at the DAG's retained-round bound above
// the floor — far enough that a laggard still votes for the live round.
func TestFarFutureHeaderIsRefused(t *testing.T) {
	rig := newTestRig(t, 4)
	e1 := rig.engines[1]
	e1.Init(0)
	for r := types.Round(1_000_000_000); r < 1_000_000_004; r++ {
		expectVote(t, e1, headerAt(t, rig, 0, r), false)
	}
	expectVote(t, e1, headerAt(t, rig, 0, dag.MaxRetainedRounds), false)
	if end := e1.rounds.End(); end > 2 {
		t.Fatalf("refused headers grew the round window to %d", end)
	}
	expectVote(t, e1, headerAt(t, rig, 0, dag.MaxRetainedRounds-1), true)
	// The bound slides with the floor.
	e1.pruneProtocolState(10)
	expectVote(t, e1, headerAt(t, rig, 0, dag.MaxRetainedRounds+9), true)
	expectVote(t, e1, headerAt(t, rig, 0, dag.MaxRetainedRounds+10), false)
}

// TestHeaderBelowVoteFloorIsRefused: below the pruning floor a header's
// certificate could never insert (onCertificate drops it), so it earns no
// vote and leaves no record.
func TestHeaderBelowVoteFloorIsRefused(t *testing.T) {
	rig := newTestRig(t, 4)
	e1 := rig.engines[1]
	e1.Init(0)
	expectVote(t, e1, headerAt(t, rig, 0, 9), true)
	e1.pruneProtocolState(10)
	expectVote(t, e1, headerAt(t, rig, 0, 9), false)
	expectVote(t, e1, headerAt(t, rig, 2, 9), false)
	expectVote(t, e1, headerAt(t, rig, 0, 10), true)
	if got := e1.rounds.At(9); got != nil {
		t.Fatalf("a round below the floor holds %+v", got)
	}
}

func TestRejectsForgedSignatures(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	parents := rig.engines[0].DAG().RoundVertices(0)
	edges := make([]types.Digest, len(parents))
	for i, p := range parents {
		edges[i] = p.Digest()
	}
	h := &Header{Round: 1, Source: 0, Edges: edges}
	h.Signature = crypto.Signature("not a real signature!")
	out := rig.engines[1].OnMessage(0, &Message{Kind: KindHeader, Header: h}, 0)
	if len(out.Unicasts) != 0 {
		t.Fatal("forged header must not earn a vote")
	}
	if rig.engines[1].PreVerifier().Stats().Dropped == 0 {
		t.Fatal("forged header must be dropped by the pre-verify stage")
	}
}

func TestCertificateWithoutQuorumRejected(t *testing.T) {
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	e0 := rig.engines[0]
	parents := e0.DAG().RoundVertices(0)
	edges := make([]types.Digest, len(parents))
	for i, p := range parents {
		edges[i] = p.Digest()
	}
	h := Header{Round: 1, Source: 2, Edges: edges}
	d := h.Digest()
	sig, err := rig.engines[2].keys.Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	h.Signature = sig
	cert := &Certificate{Header: h, Votes: []VoteSig{{Voter: 2, Signature: sig}}}
	e0.OnMessage(2, &Message{Kind: KindCertificate, Cert: cert}, 0)
	if len(rig.commits[0].subs) != 0 {
		t.Fatal("no commits expected")
	}
	if _, ok := e0.DAG().Get(1, 2); ok {
		t.Fatal("under-voted certificate must not be inserted")
	}
	if e0.PreVerifier().Stats().Dropped == 0 {
		t.Fatal("under-voted certificate must be dropped by the pre-verify stage")
	}
}

// TestOnMessageNilPayloadIsHarmless: a Message whose payload pointer for its
// kind is nil — which no decoder produces but an in-process transport can
// hand over — must neither panic the engine nor move anything but the
// invalid-message counter.
func TestOnMessageNilPayloadIsHarmless(t *testing.T) {
	rig := newTestRig(t, 4)
	e := rig.engines[0]
	e.Init(0)
	before, round, vertices := e.Stats(), e.Round(), e.DAG().VertexCount()
	for _, kind := range wireKinds {
		t.Run(kind.String(), func(t *testing.T) {
			out := e.OnMessage(1, &Message{Kind: kind}, 1)
			if len(out.Unicasts)+len(out.Broadcasts)+len(out.Timers) != 0 {
				t.Fatalf("nil %s payload produced output %+v", kind, out)
			}
			after := e.Stats()
			after.InvalidMessages = before.InvalidMessages
			if after != before || e.Round() != round || e.DAG().VertexCount() != vertices {
				t.Fatalf("nil %s payload changed engine state: stats %+v -> %+v, round %d, dag %d",
					kind, before, after, e.Round(), e.DAG().VertexCount())
			}
		})
	}
}

func TestMessageEncodedSizeAndString(t *testing.T) {
	h := &Header{Round: 1, Source: 0, Edges: []types.Digest{{}}, Batch: &types.Batch{
		Transactions: []types.Transaction{{ID: 1, Payload: []byte("xx")}},
	}}
	msgs := []*Message{
		{Kind: KindHeader, Header: h},
		{Kind: KindVote, Vote: &Vote{}},
		{Kind: KindCertificate, Cert: &Certificate{Header: *h}},
		{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: 1}},
		{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{{Header: *h}}}},
	}
	for _, m := range msgs {
		if m.EncodedSize() <= 1 {
			t.Fatalf("%s: EncodedSize = %d, want > 1", m.Kind, m.EncodedSize())
		}
		if m.String() == "" {
			t.Fatalf("%s: empty String()", m.Kind)
		}
	}
}

func TestHeaderDigestMatchesVertex(t *testing.T) {
	h := &Header{Round: 3, Source: 2, Edges: []types.Digest{types.HashBytes([]byte("p"))},
		Batch: &types.Batch{Transactions: []types.Transaction{{ID: 7}}}}
	if h.Digest() != h.Vertex().Digest() {
		t.Fatal("header digest must equal its vertex digest (votes certify the vertex)")
	}
}
