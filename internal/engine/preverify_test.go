package engine

import (
	"testing"

	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// preRig builds a 4-validator committee with Ed25519 keys and a PreVerifier
// for validator 0.
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
	return NewPreVerifier(crypto.Ed25519{}, committee, pubs), pairs, committee
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

func TestPreVerifierHeaderAndVote(t *testing.T) {
	pv, pairs, _ := preRig(t)

	h := signedHeader(t, pairs[1], 1, 1)
	if !pv.Check(&Message{Kind: KindHeader, Header: h}) {
		t.Fatal("valid header must pass")
	}
	if !h.SigVerified() {
		t.Fatal("passing header must be marked")
	}

	forged := signedHeader(t, pairs[1], 1, 1)
	forged.Signature[0] ^= 0xFF
	if pv.Check(&Message{Kind: KindHeader, Header: forged}) {
		t.Fatal("forged header must be dropped")
	}

	d := h.Digest()
	sig, err := pairs[2].Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	v := &Vote{HeaderDigest: d, Round: 1, Origin: 1, Voter: 2, Signature: sig}
	if !pv.Check(&Message{Kind: KindVote, Vote: v}) || !v.SigVerified() {
		t.Fatal("valid vote must pass and be marked")
	}
	bad := &Vote{HeaderDigest: d, Round: 1, Origin: 1, Voter: 3, Signature: sig}
	if pv.Check(&Message{Kind: KindVote, Vote: bad}) {
		t.Fatal("vote signed under the wrong key must be dropped")
	}
	outOfRange := &Vote{HeaderDigest: d, Round: 1, Origin: 1, Voter: 99, Signature: sig}
	if pv.Check(&Message{Kind: KindVote, Vote: outOfRange}) {
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
	if !pv.Check(&Message{Kind: KindCertificate, Cert: good}) || !good.SigVerified() {
		t.Fatal("quorate certificate must pass and be marked")
	}

	// One bad vote among 2f+2: stripped, quorum still reached.
	padded := mkCert(0, 1, 2, 3)
	padded.Votes[3].Signature = append(crypto.Signature(nil), padded.Votes[3].Signature...)
	padded.Votes[3].Signature[0] ^= 0xFF
	if !pv.Check(&Message{Kind: KindCertificate, Cert: padded}) {
		t.Fatal("certificate quorate after stripping one bad vote must pass")
	}
	if len(padded.Votes) != 3 {
		t.Fatalf("invalid vote must be stripped, have %d votes", len(padded.Votes))
	}

	// A vote from outside the key set: stripped, not a panic.
	stranger := mkCert(0, 1, 2)
	stranger.Votes = append(stranger.Votes, VoteSig{Voter: 99, Signature: stranger.Votes[0].Signature})
	if !pv.Check(&Message{Kind: KindCertificate, Cert: stranger}) || len(stranger.Votes) != 3 {
		t.Fatalf("quorate certificate with an out-of-committee vote must pass with it stripped, have %d votes", len(stranger.Votes))
	}

	// All signatures valid but sub-quorum stake: dropped.
	thin := mkCert(0, 1)
	if pv.Check(&Message{Kind: KindCertificate, Cert: thin}) {
		t.Fatal("sub-quorum certificate must be dropped")
	}

	// Forged quorum: dropped.
	forged := mkCert(0, 1, 2)
	for i := range forged.Votes {
		forged.Votes[i].Signature = append(crypto.Signature(nil), forged.Votes[i].Signature...)
		forged.Votes[i].Signature[0] ^= 0xFF
	}
	if pv.Check(&Message{Kind: KindCertificate, Cert: forged}) {
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

	msg := &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{bad, good}}}
	if !pv.Check(msg) {
		t.Fatal("response with one good certificate must pass")
	}
	if len(msg.CertResponse.Certs) != 1 || !msg.CertResponse.Certs[0].SigVerified() {
		t.Fatalf("bad certificate must be filtered, kept %d", len(msg.CertResponse.Certs))
	}

	allBad := &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{bad}}}
	if pv.Check(allBad) {
		t.Fatal("response with only bad certificates must be dropped")
	}
}

func TestPreVerifiedMarksSkipEngineVerification(t *testing.T) {
	// An engine with VerifySignatures=true must accept a marked header
	// whose wire signature is garbage — the mark asserts an upstream check
	// already happened (it is unexported, so only local code can set it).
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
	h.MarkSigVerified()
	out := e1.OnMessage(0, &Message{Kind: KindHeader, Header: h}, 0)
	if len(out.Unicasts) != 1 {
		t.Fatal("marked header must earn a vote without re-verification")
	}
}

func TestNeedsCheck(t *testing.T) {
	signed := []MessageKind{KindHeader, KindVote, KindCertificate, KindCertResponse}
	for _, k := range signed {
		if !NeedsCheck(k) {
			t.Fatalf("%s must need a signature check", k)
		}
	}
	for _, k := range []MessageKind{KindCertRequest, KindRoundRequest} {
		if NeedsCheck(k) {
			t.Fatalf("%s carries no signature", k)
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
