package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// refVerifyQuorumVotes is the reference the check-once rule is held to: the
// certificate check as it was before signatures were checked once. Every
// vote is verified, in order, and the valid ones are kept.
func refVerifyQuorumVotes(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey, c *Certificate) ([]VoteSig, bool) {
	digest := c.Digest()
	acc := types.NewStakeAccumulator(committee)
	kept := make([]VoteSig, 0, len(c.Votes))
	for _, vs := range c.Votes {
		if int(vs.Voter) < len(pubKeys) && scheme.Verify(pubKeys[vs.Voter], digest[:], vs.Signature) {
			kept = append(kept, vs)
			acc.Add(vs.Voter)
		}
	}
	return kept, acc.ReachedQuorum()
}

// refusedByVoteCount states the vote-count rule independently of
// oneVotePerMember: more votes than members, or a voter named twice.
func refusedByVoteCount(n int, votes []VoteSig) bool {
	if len(votes) > n {
		return true
	}
	seen := make(map[types.ValidatorID]bool)
	for _, vs := range votes {
		if seen[vs.Voter] {
			return true
		}
		seen[vs.Voter] = true
	}
	return false
}

// countingScheme counts public-key operations.
type countingScheme struct {
	crypto.Scheme
	verifies *atomic.Int64
}

func (s countingScheme) Verify(pub crypto.PublicKey, msg []byte, sig crypto.Signature) bool {
	s.verifies.Add(1)
	return s.Scheme.Verify(pub, msg, sig)
}

// sigNet is a committee of engines, each behind the pre-verify stage and
// signature table New builds it, exchanging messages in a random order. Every
// signature check a stage makes is compared with the reference, and an
// adversary injects forged, padded and flooding traffic.
type sigNet struct {
	t         *testing.T
	rng       *rand.Rand
	committee *types.Committee
	n         int
	keys      []crypto.KeyPair
	pubs      []crypto.PublicKey
	engines   []*Engine
	// prevers[i] and known[i] are engine i's own stage and table. probes[i]
	// checks the adversary's traffic toward validator i over that table but
	// reads no DAG: the engine's stage passes a copy of a certificate its
	// DAG holds unread, and the mutated copies would test nothing.
	prevers, probes []*PreVerifier
	known           []*knownSigs
	// verifies counts the public-key operations made with the engines' keys:
	// their stages', and any the engines made themselves.
	verifies atomic.Int64
	queue    []sigEvent
	now      int64
	// seen[i] holds reference copies of the certificates and headers
	// validator i's stage accepted: the adversary's material.
	seenCerts   [][]*Certificate
	seenHeaders [][]*Header
	floodRound  types.Round
	// Tallies over the run.
	certChecks, certRefusedByRule, certVotes, verified, knownVotes int
	ownCerts, viaOnMessage, viaOnChecked                           int
}

type sigEvent struct {
	from, to types.ValidatorID
	msg      *Message
	timer    *Timer
}

func newSigNet(t *testing.T, seed int64) *sigNet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := []int{4, 4, 5, 7}[rng.Intn(4)]
	auths := make([]types.Authority, n)
	for i := range auths {
		stake := types.Stake(1)
		if seed%3 == 0 {
			stake = types.Stake(1 + rng.Intn(3)) // a weighted committee
		}
		auths[i] = types.Authority{ID: types.ValidatorID(i), Name: fmt.Sprintf("v%d", i), Stake: stake}
	}
	committee, err := types.NewCommittee(auths)
	if err != nil {
		t.Fatal(err)
	}
	net := &sigNet{t: t, rng: rng, committee: committee, n: n, floodRound: 1 << 19,
		seenCerts: make([][]*Certificate, n), seenHeaders: make([][]*Header, n)}
	var clusterSeed [32]byte
	clusterSeed[0] = byte(seed)
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(crypto.Insecure{}, clusterSeed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		net.keys = append(net.keys, kp)
		net.pubs = append(net.pubs, kp.Public)
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	cfg.MinRoundDelay = 0
	for i := 0; i < n; i++ {
		kp := net.keys[i]
		kp.Scheme = countingScheme{kp.Scheme, &net.verifies}
		eng, err := New(Params{
			Config:     cfg,
			Committee:  committee,
			Self:       types.ValidatorID(i),
			Keys:       kp,
			PublicKeys: net.pubs,
			Batches:    nilBatches{},
			Scheduler:  leader.NewRoundRobin(committee, 1),
			DAG:        dag.New(committee),
			Execution:  &stubExec{},
		})
		if err != nil {
			t.Fatal(err)
		}
		net.engines = append(net.engines, eng)
		net.known = append(net.known, eng.known)
		net.prevers = append(net.prevers, eng.PreVerifier())
		net.probes = append(net.probes, newPreVerifier(crypto.Insecure{}, committee, net.pubs, eng.known, nil))
	}
	for i, e := range net.engines {
		net.route(types.ValidatorID(i), e.Init(0))
	}
	return net
}

// route queues an engine's output. Only the pacing timers fire (at once):
// every message is delivered eventually, so nothing needs a resync.
func (net *sigNet) route(from types.ValidatorID, out *Output) {
	for _, m := range out.Broadcasts {
		net.checkSealed(m)
		if m.Kind == KindCertificate && m.Cert.Header.Source == from {
			net.checkOwnCert(m.Cert)
		}
		for j := 0; j < net.n; j++ {
			if types.ValidatorID(j) != from {
				net.queue = append(net.queue, sigEvent{from: from, to: types.ValidatorID(j), msg: m})
			}
		}
	}
	for _, u := range out.Unicasts {
		net.checkSealed(u.Msg)
		net.queue = append(net.queue, sigEvent{from: from, to: u.To, msg: u.Msg})
	}
	for _, tm := range out.Timers {
		if tm.Kind == TimerRoundDelay || tm.Kind == TimerWaveDelay {
			tm := tm
			net.queue = append(net.queue, sigEvent{to: from, timer: &tm})
		}
	}
}

// checkSealed: a message leaves the engine with its header digests and
// certificate vertices filled, so the recipients that share it never write
// to it. Three goroutines then read it at once, as three recipients would:
// under the race detector that pins the rule.
func (net *sigNet) checkSealed(m *Message) {
	t := net.t
	t.Helper()
	sealed := func(c *Certificate) bool { return c.Header.digestOK && c.Header.vertexMemo != nil }
	ok := true
	switch m.Kind {
	case KindHeader:
		ok = m.Header.digestOK && m.Header.batchMemoOK
	case KindCertificate:
		ok = sealed(m.Cert)
	case KindCertResponse:
		ok = !slices.ContainsFunc(m.CertResponse.Certs, func(c *Certificate) bool { return !sealed(c) })
	}
	if !ok {
		t.Fatalf("%s left the engine unsealed", m.Kind)
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if NeedsCheck(m.Kind) {
				newPreVerifier(crypto.Insecure{}, net.committee, net.pubs, nil, nil).Check(m)
			}
			if _, err := EncodeMessage(m); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// checkOwnCert: the reference accepts a certificate this validator
// assembled with every vote it carries.
func (net *sigNet) checkOwnCert(c *Certificate) {
	net.t.Helper()
	net.ownCerts++
	kept, ok := refVerifyQuorumVotes(crypto.Insecure{}, net.committee, net.pubs, c)
	if !ok || len(kept) != len(c.Votes) {
		net.t.Fatalf("own certificate %d/%d: reference accepts=%v with %d of %d votes", c.Header.Round, c.Header.Source, ok, len(kept), len(c.Votes))
	}
}

// step delivers one queued event, chosen at random. A signed message reaches
// its engine one of two ways, chosen at random: OnMessage, which runs the
// engine's stage inline, or the stage's Check and then OnChecked, as a node's
// workers hand it over.
func (net *sigNet) step() {
	i := net.rng.Intn(len(net.queue))
	ev := net.queue[i]
	net.queue[i] = net.queue[len(net.queue)-1]
	net.queue = net.queue[:len(net.queue)-1]
	net.now += 1e6
	e := net.engines[ev.to]
	if ev.timer != nil {
		net.route(ev.to, e.OnTimer(*ev.timer, net.now))
		return
	}
	// One message, shared with its sender and every other recipient.
	m := ev.msg
	pv := net.prevers[ev.to]
	switch {
	case !NeedsCheck(m.Kind):
		net.route(ev.to, e.OnMessage(ev.from, m, net.now))
	case net.rng.Intn(2) == 0:
		net.viaOnMessage++
		// The stage's counters tell its verdict; what it passed on stays
		// inside the engine.
		var out *Output
		net.check(ev.to, pv, m, func(m *Message) (Checked, bool) {
			dropped := pv.Stats().Dropped
			out = e.OnMessage(ev.from, m, net.now)
			return Checked{}, pv.Stats().Dropped == dropped
		})
		net.route(ev.to, out)
	default:
		net.viaOnChecked++
		if checked, ok := net.check(ev.to, pv, m, pv.Check); ok {
			net.route(ev.to, e.OnChecked(ev.from, checked, net.now))
		}
	}
}

// check applies run to ref — pv's Check, or a delivery through validator
// to's engine, which runs pv inline — and holds every decision pv makes to
// the reference; ref must be left as it is. It returns run's verdict. When
// run shows the message pv passed on, that keeps only verified votes of
// ref's.
func (net *sigNet) check(to types.ValidatorID, pv *PreVerifier, ref *Message, run func(*Message) (Checked, bool)) (Checked, bool) {
	t := net.t
	t.Helper()
	frame, encErr := EncodeMessage(ref)
	before := pv.Stats()
	checked, got := run(ref)
	after := pv.Stats()
	if encErr == nil {
		if again, _ := EncodeMessage(ref); !bytes.Equal(again, frame) {
			t.Fatalf("the stage changed the %s it checked", ref.Kind)
		}
	}
	verified := int(after.Verified - before.Verified)
	net.verified += verified
	net.knownVotes += int(after.Known - before.Known)
	switch ref.Kind {
	case KindHeader:
		h := ref.Header
		d := h.Digest()
		want := int(h.Source) < net.n && crypto.Insecure{}.Verify(net.pubs[h.Source], d[:], h.Signature)
		if got != want || verified != 1 {
			t.Fatalf("header %d/%d: stage accepts=%v after %d verifications, reference %v after 1", h.Round, h.Source, got, verified, want)
		}
		if got {
			net.seenHeaders[to] = append(net.seenHeaders[to], h)
		}
	case KindVote:
		v := ref.Vote
		want := int(v.Voter) < net.n && crypto.Insecure{}.Verify(net.pubs[v.Voter], v.HeaderDigest[:], v.Signature)
		if got != want {
			t.Fatalf("vote of %d: stage accepts=%v, reference %v", v.Voter, got, want)
		}
	case KindCertificate:
		if kept := net.checkCert(to, ref.Cert, got, verified); got {
			if checked.msg != nil {
				net.checkKept(checked.msg.Cert.Votes, ref.Cert)
			}
			net.seenCerts[to] = append(net.seenCerts[to], kept)
		}
	case KindCertResponse:
		// Accepted whole or dropped whole.
		want := len(ref.CertResponse.Certs) > 0
		for _, c := range ref.CertResponse.Certs {
			if refusedByVoteCount(net.n, c.Votes) {
				want = false
			} else if _, ok := refVerifyQuorumVotes(crypto.Insecure{}, net.committee, net.pubs, c); !ok {
				want = false
			}
		}
		if got != want {
			t.Fatalf("cert response of %d certificates: stage accepts=%v, reference %v", len(ref.CertResponse.Certs), got, want)
		}
		if got && checked.msg != nil {
			for i, c := range checked.msg.CertResponse.Certs {
				if c.Digest() != ref.CertResponse.Certs[i].Digest() {
					t.Fatal("cert response: the stage passed on a different certificate")
				}
				net.checkKept(c.Votes, ref.CertResponse.Certs[i])
			}
		}
	}
	for i, k := range net.known {
		if k.len() > knownSigsPerValidator*net.n {
			t.Fatalf("validator %d's table holds %d entries, bound %d", i, k.len(), knownSigsPerValidator*net.n)
		}
	}
	return checked, got
}

// checkCert holds one certificate decision to the reference: refused with
// no public-key work when the vote-count rule refuses it, otherwise the
// reference's decision, and verifyQuorumVotes over the engine's table agrees
// and keeps a verified quorum. It returns a copy for the adversary to reuse.
func (net *sigNet) checkCert(to types.ValidatorID, ref *Certificate, got bool, verified int) *Certificate {
	t := net.t
	t.Helper()
	net.certChecks++
	net.certVotes += len(ref.Votes)
	tableKept, _, tableGot := verifyQuorumVotes(crypto.Insecure{}, net.committee, net.pubs, net.known[to], ref)
	if refusedByVoteCount(net.n, ref.Votes) {
		net.certRefusedByRule++
		if got || tableGot || verified != 0 {
			t.Fatalf("certificate with %d votes breaking the vote-count rule: stage accepts=%v after %d verifications, table check %v; want refused after 0",
				len(ref.Votes), got, verified, tableGot)
		}
		return nil
	}
	_, want := refVerifyQuorumVotes(crypto.Insecure{}, net.committee, net.pubs, ref)
	if got != want || tableGot != want {
		t.Fatalf("certificate %d/%d with %d votes: stage accepts=%v, table check %v, reference %v",
			ref.Header.Round, ref.Header.Source, len(ref.Votes), got, tableGot, want)
	}
	if verified > len(ref.Votes) {
		t.Fatalf("certificate with %d votes took %d verifications", len(ref.Votes), verified)
	}
	if tableGot {
		net.checkKept(tableKept.Votes, ref)
	}
	return copyCert(ref)
}

// copyCert is a copy of c whose votes the adversary may edit.
func copyCert(c *Certificate) *Certificate {
	return &Certificate{Header: c.Header, Votes: slices.Clone(c.Votes)}
}

// checkKept: the votes kept on an accepted certificate are distinct votes of
// the original, each with a valid signature, and together a quorum.
func (net *sigNet) checkKept(kept []VoteSig, orig *Certificate) {
	t := net.t
	t.Helper()
	d := orig.Digest()
	acc := types.NewStakeAccumulator(net.committee)
	for _, vs := range kept {
		if int(vs.Voter) >= net.n || acc.Has(vs.Voter) {
			t.Fatalf("kept vote of %d: outside the committee or repeated", vs.Voter)
		}
		if !slices.ContainsFunc(orig.Votes, func(o VoteSig) bool { return o.Voter == vs.Voter && bytes.Equal(o.Signature, vs.Signature) }) {
			t.Fatalf("kept vote of %d is not one the certificate carried", vs.Voter)
		}
		if !(crypto.Insecure{}).Verify(net.pubs[vs.Voter], d[:], vs.Signature) {
			t.Fatalf("kept vote of %d on %d/%d does not verify", vs.Voter, orig.Header.Round, orig.Header.Source)
		}
		acc.Add(vs.Voter)
	}
	if !acc.ReachedQuorum() {
		t.Fatalf("kept votes on %d/%d carry %d stake, below quorum", orig.Header.Round, orig.Header.Source, acc.Total())
	}
}

// sign is validator id's signature over d.
func (net *sigNet) sign(id types.ValidatorID, d types.Digest) crypto.Signature {
	sig, err := net.keys[id].Sign(d[:])
	if err != nil {
		net.t.Fatal(err)
	}
	return sig
}

func forge(sig crypto.Signature, rng *rand.Rand) crypto.Signature {
	out := bytes.Clone(sig)
	if len(out) == 0 {
		return crypto.Signature("forged")
	}
	out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	return out
}

// inject hands one piece of adversarial traffic to a stage over validator
// to's table (probes). None of it reaches an engine: the honest run is
// unchanged.
func (net *sigNet) inject(to types.ValidatorID) {
	rng := net.rng
	peer := types.ValidatorID((int(to) + 1 + rng.Intn(net.n-1)) % net.n)
	pv := net.probes[to]
	send := func(m *Message) { net.check(to, pv, m, pv.Check) }
	switch rng.Intn(5) {
	case 0, 1: // a mutated copy of a certificate the validator accepted
		certs := net.seenCerts[to]
		if len(certs) == 0 {
			return
		}
		c := copyCert(certs[rng.Intn(len(certs))])
		net.mutateVotes(c, to)
		send(&Message{Kind: KindCertificate, Cert: c})
	case 2: // a forged header, then a certificate carrying its signature
		h := &Header{Round: net.floodRound, Source: peer, CreatedNanos: rng.Int63()}
		net.floodRound++
		h.Signature = forge(net.sign(peer, h.Digest()), rng)
		send(&Message{Kind: KindHeader, Header: h})
		c := &Certificate{Header: *h}
		c.Votes = append(c.Votes, VoteSig{Voter: peer, Signature: h.Signature})
		for id := types.ValidatorID(0); int(id) < net.n; id++ {
			if id != peer && rng.Intn(3) > 0 {
				c.Votes = append(c.Votes, VoteSig{Voter: id, Signature: net.sign(id, h.Digest())})
			}
		}
		send(&Message{Kind: KindCertificate, Cert: c})
	case 3: // a flood of valid headers, forcing the table to evict
		for i := 0; i < knownSigsPerValidator*net.n+rng.Intn(net.n); i++ {
			h := &Header{Round: net.floodRound, Source: peer}
			net.floodRound++
			h.Signature = net.sign(peer, h.Digest())
			send(&Message{Kind: KindHeader, Header: h})
		}
	case 4: // a vote, valid or forged
		hs := net.seenHeaders[to]
		if len(hs) == 0 {
			return
		}
		h := hs[rng.Intn(len(hs))]
		v := &Vote{HeaderDigest: h.Digest(), Round: h.Round, Origin: h.Source, Voter: peer, Signature: net.sign(peer, h.Digest())}
		if rng.Intn(2) == 0 {
			v.Signature = forge(v.Signature, rng)
		}
		send(&Message{Kind: KindVote, Vote: v})
	}
}

// mutateVotes applies one to three random edits to a certificate's votes.
// Several forge the signature of a vote the validator knows: the origin's
// (its header signature) or its own.
func (net *sigNet) mutateVotes(c *Certificate, self types.ValidatorID) {
	rng := net.rng
	d := c.Digest()
	forgeVoter := func(id types.ValidatorID) {
		for i := range c.Votes {
			if c.Votes[i].Voter == id {
				c.Votes[i].Signature = forge(c.Votes[i].Signature, rng)
			}
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		switch rng.Intn(9) {
		case 0:
			forgeVoter(c.Header.Source)
		case 1:
			forgeVoter(self)
		case 2: // trim to an exact quorum, then forge one of the votes left
			rng.Shuffle(len(c.Votes), func(i, j int) { c.Votes[i], c.Votes[j] = c.Votes[j], c.Votes[i] })
			acc := types.NewStakeAccumulator(net.committee)
			for i, vs := range c.Votes {
				if acc.Add(vs.Voter); acc.ReachedQuorum() {
					c.Votes = c.Votes[:i+1]
					break
				}
			}
			if len(c.Votes) > 0 {
				i := rng.Intn(len(c.Votes))
				c.Votes[i].Signature = forge(c.Votes[i].Signature, rng)
			}
		case 3: // a voter from outside the committee, with a member's signature
			sig := crypto.Signature("stranger")
			if len(c.Votes) > 0 {
				sig = c.Votes[0].Signature
			}
			c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(net.n + rng.Intn(4)), Signature: sig})
		case 4: // a repeated vote
			if len(c.Votes) > 0 {
				c.Votes = append(c.Votes, c.Votes[rng.Intn(len(c.Votes))])
			}
		case 5: // more votes than members
			for id := net.n; len(c.Votes) <= net.n; id++ {
				c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(id), Signature: crypto.Signature("pad")})
			}
		case 6: // every missing member's vote, some forged: surplus past quorum
			for id := types.ValidatorID(0); int(id) < net.n; id++ {
				if !slices.ContainsFunc(c.Votes, func(vs VoteSig) bool { return vs.Voter == id }) {
					sig := net.sign(id, d)
					if rng.Intn(2) == 0 {
						sig = forge(sig, rng)
					}
					c.Votes = append(c.Votes, VoteSig{Voter: id, Signature: sig})
				}
			}
		case 7: // drop a vote
			if len(c.Votes) > 0 {
				c.Votes = slices.Delete(c.Votes, 0, 1)
			}
		case 8:
			rng.Shuffle(len(c.Votes), func(i, j int) { c.Votes[i], c.Votes[j] = c.Votes[j], c.Votes[i] })
		}
	}
}

// TestCheckOnceMatchesReference: over random committees, delivery orders and
// adversarial traffic, checking each signature once decides every header,
// vote and certificate exactly as verifying everything does (the
// vote-count rule apart, which refuses with no public-key work). Kept votes
// are verified and a quorum, every table stays within its bound, own
// certificates are accepted by the reference as they are, and the engines
// verify nothing outside their stages. Signed messages reach the engines by
// OnMessage and by OnChecked alike (see step), and both decide the same.
func TestCheckOnceMatchesReference(t *testing.T) {
	var ruleRefusals, known, verified, votes int
	for seed := int64(1); seed <= 24; seed++ {
		net := newSigNet(t, seed)
		for steps := 0; len(net.queue) > 0 && net.engines[0].Round() < 12 && steps < 20000; steps++ {
			if net.rng.Intn(8) == 0 {
				net.inject(types.ValidatorID(net.rng.Intn(net.n)))
			}
			net.step()
		}
		for i, e := range net.engines {
			if e.Round() < 8 {
				t.Fatalf("seed %d: validator %d stalled at round %d", seed, i, e.Round())
			}
		}
		if net.ownCerts == 0 || net.certChecks == 0 || net.viaOnMessage == 0 || net.viaOnChecked == 0 {
			t.Fatalf("seed %d: %d own certificates, %d certificate checks, %d messages by OnMessage and %d by OnChecked",
				seed, net.ownCerts, net.certChecks, net.viaOnMessage, net.viaOnChecked)
		}
		var staged int64
		for _, pv := range net.prevers {
			staged += int64(pv.Stats().Verified)
		}
		if n := net.verifies.Load() - staged; n != 0 {
			t.Fatalf("seed %d: the engines verified %d signatures outside their stages", seed, n)
		}
		ruleRefusals += net.certRefusedByRule
		known += net.knownVotes
		verified += net.verified
		votes += net.certVotes
	}
	// The rule and the table both did something.
	if ruleRefusals == 0 || known == 0 {
		t.Fatalf("%d vote-count refusals, %d known votes: the streams exercise neither", ruleRefusals, known)
	}
	t.Logf("%d certificate votes seen, %d accepted as known; %d signatures verified in all", votes, known, verified)
}

// TestVoteFloodCostsAtMostN: a certificate carrying one valid vote 20 000
// times, or more votes than the committee has members, is refused before any
// public-key work, on every path that checks certificates.
func TestVoteFloodCostsAtMostN(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	var verifies atomic.Int64
	scheme := countingScheme{crypto.Ed25519{}, &verifies}
	keys := make([]crypto.KeyPair, n)
	pubs := make([]crypto.PublicKey, n)
	for i := range keys {
		kp, err := crypto.NewKeyPair(crypto.Ed25519{}, [32]byte{3}, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		kp.Scheme = scheme
		keys[i], pubs[i] = kp, kp.Public
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	eng, err := New(Params{Config: cfg, Committee: committee, Self: 0, Keys: keys[0], PublicKeys: pubs,
		Batches: nilBatches{}, Scheduler: leader.NewRoundRobin(committee, 1), DAG: dag.New(committee), Execution: &stubExec{}})
	if err != nil {
		t.Fatal(err)
	}
	pv := eng.PreVerifier()

	edges := make([]types.Digest, 0, n)
	for _, v := range eng.DAG().RoundVertices(0) {
		edges = append(edges, v.Digest())
	}
	h := Header{Round: 1, Source: 1, Edges: edges}
	d := h.Digest()
	h.Signature, _ = keys[1].Sign(d[:])
	vote := func(id types.ValidatorID) VoteSig {
		sig, _ := keys[id].Sign(d[:])
		return VoteSig{Voter: id, Signature: sig}
	}
	good := &Certificate{Header: h, Votes: []VoteSig{vote(1), vote(2), vote(3)}}
	flooded := &Certificate{Header: h, Votes: slices.Repeat([]VoteSig{vote(2)}, 20000)}
	repeated := &Certificate{Header: h, Votes: []VoteSig{vote(1), vote(2), vote(1)}}
	padded := &Certificate{Header: h, Votes: []VoteSig{vote(1), vote(2), vote(3), vote(0), {Voter: 9, Signature: vote(0).Signature}}}

	for _, tc := range []struct {
		name string
		c    *Certificate
	}{{"flooded", flooded}, {"repeated voter", repeated}, {"more votes than members", padded}} {
		// Through the wire, as a peer would send it.
		frame, err := EncodeMessage(&Message{Kind: KindCertificate, Cert: tc.c})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		check := func(path string, accepted bool) {
			t.Helper()
			if accepted {
				t.Fatalf("%s: %s accepted", tc.name, path)
			}
			if v := verifies.Swap(0); v > n {
				t.Fatalf("%s: %s refused after %d verifications, want at most %d", tc.name, path, v, n)
			}
		}
		verifies.Store(0)
		check("pre-verify", passes(pv, got))
		resp := &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{tc.c, good}}}
		check("cert response", passes(pv, resp))
		pulled := &Message{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 1, Certs: []*Certificate{good, tc.c}}}
		check("round pull's reply", passes(pv, pulled))
		dropped := pv.Stats().Dropped
		eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: tc.c}, 0)
		check("engine", pv.Stats().Dropped == dropped)
		if _, ok := eng.DAG().Get(1, 1); ok {
			t.Fatalf("%s: engine inserted the certificate", tc.name)
		}
	}
	if st := pv.Stats(); st.Dropped != 12 {
		t.Fatalf("pre-verify dropped %d messages, want the 3 refused certificates twice (checked, and through the engine) and the 6 responses holding one", st.Dropped)
	}
	// Without signature checks the rule still holds.
	cfg.VerifySignatures = false
	plain, err := New(Params{Config: cfg, Committee: committee, Self: 0, Keys: keys[0],
		Batches: nilBatches{}, Scheduler: leader.NewRoundRobin(committee, 1), DAG: dag.New(committee), Execution: &stubExec{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.validCertificate(flooded) || plain.validCertificate(padded) || !plain.validCertificate(good) {
		t.Fatal("without signature checks the vote-count rule must still refuse flooded and padded certificates, and only those")
	}
}

// TestOwnCertificateNotReverified: the validator's own certificate is
// ingested without a public-key operation, and a peer's certificate whose
// origin and own votes the validator already holds costs one.
func TestOwnCertificateNotReverified(t *testing.T) {
	var verifies atomic.Int64
	rig := newSchemeRig(t, 4, countingScheme{crypto.Insecure{}, &verifies})
	for _, e := range rig.engines {
		e.Init(0)
	}
	e0 := rig.engines[0]
	own := e0.CurrentProposal()
	for voter := types.ValidatorID(1); voter <= 2; voter++ {
		d := own.Digest()
		sig, err := rig.engines[voter].keys.Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		verifies.Store(0)
		out := e0.OnMessage(voter, &Message{Kind: KindVote, Vote: &Vote{
			HeaderDigest: own.Digest(), Round: own.Round, Origin: 0, Voter: voter, Signature: sig,
		}}, 0)
		if voter == 2 {
			// The vote itself is checked (by the engine's stage, inline);
			// the certificate it completes is not.
			if n := verifies.Load(); n != 1 {
				t.Fatalf("completing vote and own certificate took %d verifications, want 1", n)
			}
			findBroadcast(t, out, KindCertificate)
		}
	}
	if _, ok := e0.DAG().Get(1, 0); !ok {
		t.Fatal("own certificate not inserted")
	}

	// Validator 0 verifies validator 1's header and votes for it; validator
	// 1's certificate then needs only the third vote checked.
	h1 := new(Header)
	*h1 = *rig.engines[1].CurrentProposal()
	verifies.Store(0)
	if out := e0.OnMessage(1, &Message{Kind: KindHeader, Header: h1}, 0); len(out.Unicasts) != 1 {
		t.Fatal("no vote for validator 1's header")
	}
	if n := verifies.Load(); n != 1 {
		t.Fatalf("header check took %d verifications, want 1", n)
	}
	d := h1.Digest()
	cert := &Certificate{Header: *h1}
	for _, id := range []types.ValidatorID{0, 1, 2} {
		sig, err := rig.engines[id].keys.Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		cert.Votes = append(cert.Votes, VoteSig{Voter: id, Signature: sig})
	}
	verifies.Store(0)
	e0.OnMessage(1, &Message{Kind: KindCertificate, Cert: cert}, 0)
	if _, ok := e0.DAG().Get(1, 1); !ok {
		t.Fatal("validator 1's certificate not inserted")
	}
	if n := verifies.Load(); n != 1 {
		t.Fatalf("peer certificate with the origin and own votes known took %d verifications, want 1", n)
	}
}

// TestKnownSigsSharedAcrossWorkers: a validator's pre-verify workers and its
// engine goroutine use one table at once (run it under the race detector).
func TestKnownSigsSharedAcrossWorkers(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]crypto.KeyPair, n)
	pubs := make([]crypto.PublicKey, n)
	for i := range keys {
		if keys[i], err = crypto.NewKeyPair(crypto.Insecure{}, [32]byte{7}, uint32(i)); err != nil {
			t.Fatal(err)
		}
		pubs[i] = keys[i].Public
	}
	known := newKnownSigs(n)
	pv := newPreVerifier(crypto.Insecure{}, committee, pubs, known, nil)
	sign := func(id types.ValidatorID, d types.Digest) crypto.Signature {
		sig, _ := keys[id].Sign(d[:])
		return sig
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := types.Round(1); r <= 200; r++ {
				h := &Header{Round: r, Source: types.ValidatorID(1 + (w+int(r))%(n-1)), CreatedNanos: int64(w)}
				d := h.Digest()
				h.Signature = sign(h.Source, d)
				if !passes(pv, &Message{Kind: KindHeader, Header: h}) {
					t.Error("valid header dropped")
					return
				}
				// The engine's side: the vote it signs for the header.
				known.add(0, d, sign(0, d))
				c := &Certificate{Header: *h}
				for id := types.ValidatorID(0); int(id) < n; id++ {
					c.Votes = append(c.Votes, VoteSig{Voter: id, Signature: sign(id, d)})
				}
				if !passes(pv, &Message{Kind: KindCertificate, Cert: c}) {
					t.Error("valid certificate dropped")
					return
				}
			}
		}()
	}
	wg.Wait()
	if l := known.len(); l > knownSigsPerValidator*n {
		t.Fatalf("table holds %d entries, bound %d", l, knownSigsPerValidator*n)
	}
	if st := pv.Stats(); st.Known == 0 {
		t.Fatal("no certificate vote was found in the table")
	}
}

// TestCheckedVerdictOutlivesTable: the stage's verdict reaches the engine
// with the message, whatever the table evicted meanwhile. A full sync
// response (maxSyncBatch certificates) and a backlog of checked messages wait
// behind a flood of fresh headers that evicts every table entry several times
// over, as a Byzantine member or a busy engine queue would; the engine then
// takes them all without one public-key operation.
func TestCheckedVerdictOutlivesTable(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	var verifies atomic.Int64
	keys := make([]crypto.KeyPair, n)
	pubs := make([]crypto.PublicKey, n)
	for i := range keys {
		if keys[i], err = crypto.NewKeyPair(crypto.Insecure{}, [32]byte{11}, uint32(i)); err != nil {
			t.Fatal(err)
		}
		pubs[i] = keys[i].Public
	}
	sign := func(id types.ValidatorID, d types.Digest) crypto.Signature {
		sig, err := keys[id].Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	kp := keys[0]
	kp.Scheme = countingScheme{kp.Scheme, &verifies}
	eng, err := New(Params{Config: cfg, Committee: committee, Self: 0, Keys: kp, PublicKeys: pubs,
		Batches: nilBatches{}, Scheduler: leader.NewRoundRobin(committee, 1), DAG: dag.New(committee), Execution: &stubExec{}})
	if err != nil {
		t.Fatal(err)
	}
	pv := eng.PreVerifier()
	eng.Init(0)

	// Rounds of certificates voted by the three peers, so none of the votes
	// is one the engine cast itself.
	rounds := types.Round(maxSyncBatch/n + 2)
	certs := buildCertTrace(t, committee, rounds)
	for _, c := range certs {
		d := c.Digest()
		c.Votes = c.Votes[:0]
		for id := types.ValidatorID(1); id < n; id++ {
			c.Votes = append(c.Votes, VoteSig{Voter: id, Signature: sign(id, d)})
		}
	}
	check := func(m *Message) Checked {
		t.Helper()
		c, ok := pv.Check(m)
		if !ok {
			t.Fatalf("the stage dropped a valid %s", m.Kind)
		}
		return c
	}
	batch := check(&Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: certs[:maxSyncBatch]}})
	var backlog []Checked
	for _, c := range certs[maxSyncBatch:] {
		backlog = append(backlog, check(&Message{Kind: KindCertificate, Cert: c}))
	}
	var edges []types.Digest
	for _, c := range certs[len(certs)-n:] {
		edges = append(edges, c.Digest())
	}
	h := &Header{Round: rounds + 1, Source: 1, Edges: edges}
	h.Signature = sign(1, h.Digest())
	backlog = append(backlog, check(&Message{Kind: KindHeader, Header: h}))
	for i := 0; i < 4*knownSigsPerValidator*n; i++ {
		f := &Header{Round: 1<<20 + types.Round(i), Source: 3}
		f.Signature = sign(3, f.Digest())
		check(&Message{Kind: KindHeader, Header: f})
	}

	verifies.Store(0)
	eng.OnChecked(2, batch, 0)
	var out *Output
	for _, c := range backlog {
		out = eng.OnChecked(1, c, 0)
	}
	if v := verifies.Load(); v != 0 {
		t.Fatalf("the engine verified %d signatures the stage had checked", v)
	}
	for src := types.ValidatorID(0); src < n; src++ {
		if _, ok := eng.DAG().Get(rounds, src); !ok {
			t.Fatalf("certificate %d/%d not inserted", rounds, src)
		}
	}
	if len(out.Unicasts) != 1 || out.Unicasts[0].Msg.Kind != KindVote {
		t.Fatal("no vote for the checked header")
	}
	// The counter sees the stage's work: a header delivered bare goes
	// through it, and is verified.
	g := &Header{Round: rounds + 1, Source: 2, Edges: edges}
	g.Signature = sign(2, g.Digest())
	eng.OnMessage(2, &Message{Kind: KindHeader, Header: g}, 0)
	if v := verifies.Load(); v != 1 {
		t.Fatalf("a bare header took %d verifications, want 1", v)
	}
}

// TestHeldCertificatesCostNoVerification: the pre-verify stage reads its
// validator's DAG, and a certificate the engine would drop without reading
// its votes — one whose vertex the DAG holds, or one below the DAG's floor —
// passes without a public-key operation. A catch-up response of held
// certificates costs nothing, and the engine, taking it, changes nothing. A
// certificate the DAG lacks is still checked, and still sinks its response
// when forged.
func TestHeldCertificatesCostNoVerification(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	var verifies atomic.Int64
	scheme := countingScheme{crypto.Ed25519{}, &verifies}
	keys := make([]crypto.KeyPair, n)
	pubs := make([]crypto.PublicKey, n)
	for i := range keys {
		kp, err := crypto.NewKeyPair(crypto.Ed25519{}, [32]byte{5}, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		kp.Scheme = scheme
		keys[i], pubs[i] = kp, kp.Public
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	eng, err := New(Params{Config: cfg, Committee: committee, Self: 0, Keys: keys[0], PublicKeys: pubs,
		Batches: nilBatches{}, Scheduler: leader.NewRoundRobin(committee, 1), DAG: dag.New(committee), Execution: &stubExec{}})
	if err != nil {
		t.Fatal(err)
	}
	pv := eng.PreVerifier()

	// Rounds 1 to 4 of validators 1 to 3, each certified by all three.
	var prev []types.Digest
	for _, v := range eng.DAG().RoundVertices(0) {
		prev = append(prev, v.Digest())
	}
	rounds := make([][]*Certificate, 5)
	for r := types.Round(1); r <= 4; r++ {
		var cur []types.Digest
		for src := types.ValidatorID(1); src < n; src++ {
			h := Header{Round: r, Source: src, Edges: prev}
			d := h.Digest()
			h.Signature, _ = keys[src].Sign(d[:])
			c := &Certificate{Header: h}
			for voter := types.ValidatorID(1); voter < n; voter++ {
				sig, _ := keys[voter].Sign(d[:])
				c.Votes = append(c.Votes, VoteSig{Voter: voter, Signature: sig})
			}
			rounds[r] = append(rounds[r], c)
			cur = append(cur, d)
		}
		prev = cur
	}
	var held []*Certificate
	for r := 1; r <= 3; r++ {
		held = append(held, rounds[r]...)
	}
	checked, ok := pv.Check(&Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: held}})
	if !ok {
		t.Fatal("the first response of rounds 1 to 3 was dropped")
	}
	eng.OnChecked(1, checked, 0)
	if v := verifies.Swap(0); v == 0 {
		t.Fatal("the first response cost no verification: nothing was held yet")
	}
	for _, c := range held {
		if _, ok := eng.DAG().Get(c.Header.Round, c.Header.Source); !ok {
			t.Fatalf("setup: (%d, %s) not inserted", c.Header.Round, c.Header.Source)
		}
	}

	before := eng.Stats()
	for _, m := range []*Message{
		{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: held}},
		{Kind: KindCertResponse, CertResponse: &CertResponse{FromRound: 1, Certs: held}},
		{Kind: KindCertificate, Cert: held[0]},
	} {
		checked, ok := pv.Check(m)
		if !ok {
			t.Fatalf("a %v of held certificates was dropped", m.Kind)
		}
		if v := verifies.Swap(0); v != 0 {
			t.Fatalf("a %v of held certificates cost %d verifications, want 0", m.Kind, v)
		}
		eng.OnChecked(1, checked, 0)
	}
	if after := eng.Stats(); after.CertsReceived != before.CertsReceived || after.InvalidMessages != before.InvalidMessages {
		t.Fatalf("the engine took held certificates: received %d → %d, invalid %d → %d",
			before.CertsReceived, after.CertsReceived, before.InvalidMessages, after.InvalidMessages)
	}

	// A round-4 certificate beside them is checked, and only it.
	if !passes(pv, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: append(slices.Clone(held), rounds[4][0])}}) {
		t.Fatal("held certificates and a fresh one were dropped")
	}
	if v := verifies.Swap(0); v == 0 || v > 3 {
		t.Fatalf("held certificates and a fresh one cost %d verifications, want the fresh one's quorum", v)
	}
	forged := &Certificate{Header: rounds[4][1].Header, Votes: slices.Clone(rounds[4][1].Votes)}
	forged.Votes[0].Signature = mangleSig(forged.Votes[0].Signature)
	forged.Votes[1].Signature = mangleSig(forged.Votes[1].Signature)
	if passes(pv, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: append(slices.Clone(held), forged)}}) {
		t.Fatal("a forged certificate the DAG lacks passed beside held ones")
	}

	// Below the floor: the DAG pruned rounds 1 and 2, and certificates there
	// pass without a look at their votes, forged or not.
	pruned := dag.New(committee)
	for _, v := range eng.DAG().RoundVertices(0) {
		if err := pruned.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range held {
		if err := pruned.Insert(c.Header.Vertex()); err != nil {
			t.Fatal(err)
		}
	}
	pruned.Prune(3)
	below := &Certificate{Header: Header{Round: 2, Source: 0}, Votes: forged.Votes}
	verifies.Store(0)
	pvPruned := newPreVerifier(scheme, committee, pubs, newKnownSigs(n), pruned)
	if !passes(pvPruned, &Message{Kind: KindCertResponse, CertResponse: &CertResponse{Certs: []*Certificate{below, rounds[1][0]}}}) {
		t.Fatal("certificates below the floor were dropped")
	}
	if v := verifies.Load(); v != 0 {
		t.Fatalf("certificates below the floor cost %d verifications, want 0", v)
	}
}

// mangleSig returns a copy of sig with its first byte flipped.
func mangleSig(sig crypto.Signature) crypto.Signature {
	out := slices.Clone(sig)
	out[0] ^= 0xFF
	return out
}
