package engine

import (
	"reflect"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// preRig builds a 4-validator committee with Ed25519 keys and a PreVerifier
// for validator 0 over its own table.
func preRig(t *testing.T) (*PreVerifier, []crypto.KeyPair, *types.Committee) {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]crypto.KeyPair, 4)
	pubs := make([]crypto.PublicKey, 4)
	for i := range pairs {
		kp, err := crypto.NewKeyPair(crypto.Ed25519{}, [32]byte{9}, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = kp
		pubs[i] = kp.Public
	}
	return newPreVerifier(crypto.Ed25519{}, committee, pubs, newKnownSigs(4), nil), pairs, committee
}

func signedHeader(t *testing.T, kp crypto.KeyPair, source types.ValidatorID, round types.Round) *Header {
	t.Helper()
	h := &Header{Round: round, Source: source}
	d := h.Digest()
	sig, err := kp.Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	h.Signature = sig
	return h
}

// passes reports whether the stage passes m.
func passes(pv *PreVerifier, m *Message) bool {
	_, ok := pv.Check(m)
	return ok
}

func TestPreVerifierHeaderAndVote(t *testing.T) {
	pv, pairs, _ := preRig(t)

	h := signedHeader(t, pairs[1], 1, 1)
	m := &Message{Kind: KindHeader, Header: h}
	if c, ok := pv.Check(m); !ok || c.msg != m {
		t.Fatal("valid header must pass as it is")
	}

	forged := signedHeader(t, pairs[1], 1, 1)
	forged.Signature[0] ^= 0xFF
	if passes(pv, &Message{Kind: KindHeader, Header: forged}) {
		t.Fatal("forged header must be dropped")
	}

	d := h.Digest()
	sig, err := pairs[2].Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	v := &Vote{HeaderDigest: d, Round: 1, Origin: 1, Voter: 2, Signature: sig}
	if !passes(pv, &Message{Kind: KindVote, Vote: v}) {
		t.Fatal("valid vote must pass")
	}
	bad := &Vote{HeaderDigest: d, Round: 1, Origin: 1, Voter: 3, Signature: sig}
	if passes(pv, &Message{Kind: KindVote, Vote: bad}) {
		t.Fatal("vote signed under the wrong key must be dropped")
	}
	outOfRange := &Vote{HeaderDigest: d, Round: 1, Origin: 1, Voter: 99, Signature: sig}
	if passes(pv, &Message{Kind: KindVote, Vote: outOfRange}) {
		t.Fatal("vote from a voter outside the key set must be dropped, not panic")
	}

	st := pv.Stats()
	if st.Checked != 5 || st.Dropped != 3 {
		t.Fatalf("stats = %+v, want 5 checked 3 dropped", st)
	}
}

func TestPreVerifierCertificateQuorum(t *testing.T) {
	pv, pairs, _ := preRig(t)
	h := signedHeader(t, pairs[1], 1, 1)
	d := h.Digest()

	mkCert := func(voters ...types.ValidatorID) *Certificate {
		c := &Certificate{Header: *h}
		for _, id := range voters {
			sig, err := pairs[id].Sign(d[:])
			if err != nil {
				t.Fatal(err)
			}
			c.Votes = append(c.Votes, VoteSig{Voter: id, Signature: sig})
		}
		return c
	}

	good := mkCert(0, 1, 2)
	goodMsg := &Message{Kind: KindCertificate, Cert: good}
	if c, ok := pv.Check(goodMsg); !ok || c.msg != goodMsg {
		t.Fatal("quorate certificate must pass as it is")
	}

	// One bad vote among 2f+2: the quorum is still reached, and the stage
	// passes on a new certificate without it, leaving the one it checked
	// as it came.
	padded := mkCert(0, 1, 2, 3)
	padded.Votes[3].Signature = append(crypto.Signature(nil), padded.Votes[3].Signature...)
	padded.Votes[3].Signature[0] ^= 0xFF
	c, ok := pv.Check(&Message{Kind: KindCertificate, Cert: padded})
	if !ok {
		t.Fatal("certificate quorate without its one bad vote must pass")
	}
	if len(c.msg.Cert.Votes) != 3 || len(padded.Votes) != 4 {
		t.Fatalf("invalid vote must be stripped from a new certificate: passed on %d votes, the original holds %d", len(c.msg.Cert.Votes), len(padded.Votes))
	}

	// A vote from outside the key set: stripped, not a panic.
	stranger := mkCert(0, 1, 2)
	stranger.Votes = append(stranger.Votes, VoteSig{Voter: 99, Signature: stranger.Votes[0].Signature})
	if c, ok := pv.Check(&Message{Kind: KindCertificate, Cert: stranger}); !ok || len(c.msg.Cert.Votes) != 3 || len(stranger.Votes) != 4 {
		t.Fatal("quorate certificate with an out-of-committee vote must pass with it stripped from a new certificate")
	}

	// All signatures valid but sub-quorum stake: dropped.
	thin := mkCert(0, 1)
	if passes(pv, &Message{Kind: KindCertificate, Cert: thin}) {
		t.Fatal("sub-quorum certificate must be dropped")
	}

	// Forged quorum: dropped.
	forged := mkCert(0, 1, 2)
	for i := range forged.Votes {
		forged.Votes[i].Signature = append(crypto.Signature(nil), forged.Votes[i].Signature...)
		forged.Votes[i].Signature[0] ^= 0xFF
	}
	if passes(pv, &Message{Kind: KindCertificate, Cert: forged}) {
		t.Fatal("fully forged certificate must be dropped")
	}
}

func TestPreVerifierCertResponseFiltersBadCerts(t *testing.T) {
	pv, pairs, _ := preRig(t)
	h := signedHeader(t, pairs[1], 1, 1)
	d := h.Digest()
	var votes []VoteSig
	for _, id := range []types.ValidatorID{0, 1, 2} {
		sig, err := pairs[id].Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		votes = append(votes, VoteSig{Voter: id, Signature: sig})
	}
	good := &Certificate{Header: *h, Votes: votes}
	bad := &Certificate{Header: *h, Votes: []VoteSig{{Voter: 0, Signature: crypto.Signature("junk")}}}

	// A response holding a bad certificate is dropped whole, and the stage
	// leaves it as it came: honest responders serve only certificates they
	// validated.
	certs := []*Certificate{good, bad}
	msg := &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: certs}}
	if passes(pv, msg) {
		t.Fatal("response with a bad certificate must be dropped")
	}
	if !reflect.DeepEqual(msg.CertResponse.Certs, []*Certificate{good, bad}) || &msg.CertResponse.Certs[0] != &certs[0] {
		t.Fatal("the stage must not filter the response's certificates in place")
	}
	pulled := &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 1, Certs: []*Certificate{bad, good}}}
	if passes(pv, pulled) {
		t.Fatal("round pull's reply with a bad certificate must be dropped")
	}

	if !passes(pv, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 1, Certs: []*Certificate{good}}}) {
		t.Fatal("response of good certificates must pass")
	}
	// A round pull's reply counts toward a rejoin quorum with or without
	// certificates.
	if !passes(pv, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 7}}) {
		t.Fatal("round pull's reply with no certificate must pass")
	}
}

func TestPreVerifiedMarksSkipEngineVerification(t *testing.T) {
	// An engine with VerifySignatures=true must accept a header whose wire
	// signature is garbage when it comes as a Checked verdict — the verdict
	// asserts an upstream check already happened (only PreVerifier.Check
	// makes one). The same header as a bare message goes through the
	// engine's stage, and is refused.
	rig := newTestRig(t, 4)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	e1 := rig.engines[1]
	parents := e1.DAG().RoundVertices(0)
	edges := make([]types.Digest, len(parents))
	for i, p := range parents {
		edges[i] = p.Digest()
	}
	h := &Header{Round: 1, Source: 0, Edges: edges, Signature: crypto.Signature("garbage")}
	m := &Message{Kind: KindHeader, Header: h}
	if out := e1.OnMessage(0, m, 0); len(out.Unicasts) != 0 {
		t.Fatal("a header delivered bare must be verified")
	}
	if out := e1.OnChecked(0, Checked{msg: m}, 0); len(out.Unicasts) != 1 {
		t.Fatal("a checked header must earn a vote without re-verification")
	}
}

func TestNeedsCheck(t *testing.T) {
	signed := []MessageKind{KindHeader, KindVote, KindCertificate, KindCertResponse}
	for _, k := range signed {
		if !NeedsCheck(k) {
			t.Fatalf("%s must need a signature check", k)
		}
	}
	for _, k := range []MessageKind{KindRoundRequest, KindSnapshotRequest} {
		if NeedsCheck(k) {
			t.Fatalf("%s carries no signature", k)
		}
	}
	// Checkpoint shares and certificates are the engine's to check.
	for _, k := range []MessageKind{KindCheckpointSig, KindCheckpointCert} {
		if NeedsCheck(k) {
			t.Fatalf("%s must reach the engine unqueued", k)
		}
	}
}

func TestEngineStripsForgedVotesFromStoredCerts(t *testing.T) {
	// A certificate with a valid quorum plus a forged extra vote must be
	// accepted, but the stored copy served to syncing peers must not
	// retain the forged vote (parity with the pre-verify path).
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
	sig2, err := rig.engines[2].keys.Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	h.Signature = sig2
	cert := &Certificate{Header: h}
	for _, id := range []types.ValidatorID{1, 2, 3} {
		sig, serr := rig.engines[id].keys.Sign(d[:])
		if serr != nil {
			t.Fatal(serr)
		}
		cert.Votes = append(cert.Votes, VoteSig{Voter: id, Signature: sig})
	}
	cert.Votes = append(cert.Votes, VoteSig{Voter: 0, Signature: crypto.Signature("forged")})

	e0.OnMessage(2, &Message{Kind: KindCertificate, Cert: cert}, 0)
	if _, ok := e0.DAG().Get(1, 2); !ok {
		t.Fatal("quorate certificate must be inserted despite the forged extra vote")
	}
	stored := e0.certAt(1, 2)
	if stored == nil {
		t.Fatal("certificate missing from the sync store")
	}
	if len(stored.Votes) != 3 {
		t.Fatalf("stored certificate has %d votes, want forged vote stripped (3)", len(stored.Votes))
	}
	for _, vs := range stored.Votes {
		if vs.Voter == 0 {
			t.Fatal("forged vote survived into the stored certificate")
		}
	}
}

// TestSigCountFollowsNeedsCheck: the kinds the pre-verify stage checks are
// exactly the kinds whose messages report signatures to it, so the
// verify-batch histogram observes every message the stage verifies.
func TestSigCountFollowsNeedsCheck(t *testing.T) {
	sig := crypto.Signature("sig")
	cert := func() *Certificate {
		return &Certificate{Header: Header{Round: 1, Signature: sig}, Votes: []VoteSig{{Voter: 0, Signature: sig}, {Voter: 1, Signature: sig}}}
	}
	// One non-empty payload of every kind.
	msgs := []*Message{
		{Kind: KindHeader, Header: &Header{Round: 1, Signature: sig}},
		{Kind: KindVote, Vote: &Vote{Round: 1, Signature: sig}},
		{Kind: KindCertificate, Cert: cert()},
		{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{cert(), cert()}}},
		{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: 1}},
		{Kind: KindSnapshotRequest, SnapshotRequest: &SnapshotRequest{HaveRound: 1}},
		{Kind: KindSnapshotResponse, SnapshotResponse: &SnapshotResponse{Round: 1, Data: []byte{1}}},
		{Kind: KindCheckpointSig, CheckpointSig: &checkpoint.Share{Signature: sig}},
		{Kind: KindCheckpointCert, CheckpointCert: &checkpoint.Certificate{Sigs: []checkpoint.Sig{{Signature: sig}}}},
	}
	for i, m := range msgs {
		if m.Kind != wireKinds[i] {
			t.Fatalf("table out of order at %s", m.Kind)
		}
		if got := m.SigCount(); NeedsCheck(m.Kind) != (got > 0) {
			t.Errorf("%s: SigCount %d, NeedsCheck %v", m.Kind, got, NeedsCheck(m.Kind))
		}
	}
	if len(msgs) != len(wireKinds) {
		t.Fatalf("%d kinds in the table, want %d", len(msgs), len(wireKinds))
	}
	if got := msgs[3].SigCount(); got != 4 {
		t.Fatalf("a response of two 2-vote certificates counts %d signatures, want 4", got)
	}
	for _, k := range []MessageKind{KindHeader, KindVote, KindCertificate, KindCertResponse} {
		if got := (&Message{Kind: k}).SigCount(); got != 0 {
			t.Errorf("%s with no payload counts %d signatures", k, got)
		}
	}
}

// TestOutputMessagesAreSealed: Output seals what it is handed, whether or
// not the engine read it — header digests and certificate vertices are
// filled, so recipients sharing the message never write to it. Every message
// a live committee sends is checked the same way, and read by three
// goroutines at once, in the TestCheckOnceMatchesReference harness
// (sigNet.checkSealed).
func TestOutputMessagesAreSealed(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	net := &sigNet{t: t, committee: committee}
	out := &Output{}
	fresh := func(r types.Round) *Certificate { return &Certificate{Header: Header{Round: r, Source: 1}} }
	out.broadcast(&Message{Kind: KindHeader, Header: &Header{Round: 1, Source: 1}})
	out.broadcast(&Message{Kind: KindCertificate, Cert: fresh(1)})
	out.unicast(2, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{fresh(2), fresh(3)}}})
	out.unicast(2, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 4, Certs: []*Certificate{fresh(4)}, Offer: &SnapshotMeta{Round: 2}}})
	for _, m := range out.Broadcasts {
		net.checkSealed(m)
	}
	for _, u := range out.Unicasts {
		net.checkSealed(u.Msg)
	}
}
