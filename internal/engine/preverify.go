package engine

import (
	"slices"
	"sync/atomic"

	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/types"
)

// PreVerifier validates message signatures before they reach the engine: it
// is the one check of header, vote and certificate signatures. New builds it
// (Engine.PreVerifier) when Config.VerifySignatures is set. The node runtime
// runs Check on a pool of goroutines between the transport and the engine
// loop, so the expensive public-key work happens off the single-threaded
// state machine; Engine.OnMessage runs it inline on the engine's goroutine.
// Messages that fail are dropped without ever entering the engine.
//
// The stage's verdict travels with the message it passed, as the Checked
// value the engine takes in OnChecked, and is never written into the message:
// one message may be shared by every in-process recipient. The stage shares
// its validator's knownSigs table with the engine, adds every header
// signature that verifies to it, and counts a certificate vote whose exact
// bytes the table holds without a second public-key operation. It reads the
// validator's DAG as well: a certificate the DAG already holds, or one below
// its floor, is passed on unchecked, since the engine drops it without
// reading its votes.
//
// Check is safe for concurrent use.
type PreVerifier struct {
	committee *types.Committee
	pubKeys   []crypto.PublicKey
	scheme    crypto.Scheme
	known     *knownSigs
	held      *dag.DAG

	checked    atomic.Uint64
	dropped    atomic.Uint64
	verified   atomic.Uint64
	knownVotes atomic.Uint64
}

// PreVerifyStats are cumulative PreVerifier counters.
type PreVerifyStats struct {
	// Checked counts messages inspected.
	Checked uint64
	// Dropped counts messages rejected for invalid signatures, and
	// certificates refused by the vote-count rule (see oneVotePerMember).
	Dropped uint64
	// Verified counts signatures checked with a public-key operation.
	Verified uint64
	// Known counts certificate votes accepted without one: their exact bytes
	// were already verified, or signed, by this validator (see knownSigs).
	Known uint64
}

// newPreVerifier builds a pre-verify stage for one validator over its
// knownSigs table (nil: none, every signature is verified) and its DAG (nil:
// every certificate is checked). Check verifies a message's signatures one
// after another on the caller's goroutine; the node's concurrency is its pool
// of pre-verify workers, not this stage.
func newPreVerifier(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey, known *knownSigs, held *dag.DAG) *PreVerifier {
	return &PreVerifier{committee: committee, pubKeys: pubKeys, scheme: scheme, known: known, held: held}
}

// Stats returns a copy of the counters.
func (pv *PreVerifier) Stats() PreVerifyStats {
	return PreVerifyStats{
		Checked:  pv.checked.Load(),
		Dropped:  pv.dropped.Load(),
		Verified: pv.verified.Load(),
		Known:    pv.knownVotes.Load(),
	}
}

// NeedsCheck reports whether messages of this kind carry signatures.
// Requests (round/snapshot) are unauthenticated pulls; serving them leaks
// no state beyond what any committee member already replicates. Checkpoint
// shares and certificates are checked by the engine: a peer's checkpoint
// certificate is verified only when the validator has not certified that
// checkpoint itself, and shares queued here would let those certificates
// overtake them.
func NeedsCheck(kind MessageKind) bool {
	switch kind {
	case KindHeader, KindVote, KindCertificate, KindCertResponse:
		return true
	default:
		return false
	}
}

// SigCount is the number of signatures msg hands the pre-verify stage: the
// stage verifies at most that many, and kinds NeedsCheck refuses report 0.
// Nil payloads (a malformed frame whose Kind and payload disagree) report 0;
// the stage drops them.
func (m *Message) SigCount() int {
	switch {
	case m.Kind == KindHeader && m.Header != nil, m.Kind == KindVote && m.Vote != nil:
		return 1
	case m.Kind == KindCertificate && m.Cert != nil:
		return len(m.Cert.Votes)
	case m.Kind == KindCertResponse && m.CertResponse != nil:
		total := 0
		for _, c := range m.CertResponse.Certs {
			if c != nil {
				total += len(c.Votes)
			}
		}
		return total
	default:
		return 0
	}
}

// Checked is a message the pre-verify stage passed, for Engine.OnChecked:
// every signature in it verified, or its bytes were known (knownSigs), so the
// engine checks none of them again. Only Check makes one. The verdict rides
// with the message rather than in the table, whose entries a full sync batch
// or a queued backlog evicts before the engine reads the message.
type Checked struct{ msg *Message }

// Check verifies every signature msg carries. It returns false when the
// message should be dropped: a forged header or vote, a certificate that
// breaks the vote-count rule or whose valid-signature votes do not reach
// quorum, or a CertResponse holding any certificate that fails — honest
// responders serve only certificates they validated. Invalid or surplus votes
// inside an otherwise-quorate certificate are not fatal: the message passed
// on holds a new certificate without them. msg itself is never changed.
func (pv *PreVerifier) Check(msg *Message) (Checked, bool) {
	pv.checked.Add(1)
	passed, ok := pv.check(msg)
	if !ok {
		pv.dropped.Add(1)
		return Checked{}, false
	}
	return Checked{msg: passed}, true
}

// check returns the message to pass on: msg, or a new message when a
// certificate in it lost votes.
func (pv *PreVerifier) check(msg *Message) (*Message, bool) {
	switch msg.Kind {
	case KindHeader:
		return msg, pv.checkHeader(msg.Header)
	case KindVote:
		return msg, pv.checkVote(msg.Vote)
	case KindCertificate:
		c, ok := pv.checkCertificate(msg.Cert)
		if ok && c != msg.Cert {
			msg = &Message{Kind: KindCertificate, Cert: c}
		}
		return msg, ok
	case KindCertResponse:
		if msg.CertResponse == nil {
			return nil, false
		}
		certs, stripped, ok := pv.checkCertificates(msg.CertResponse.Certs)
		if stripped {
			r := *msg.CertResponse
			r.Certs = certs
			msg = &Message{Kind: KindCertResponse, CertResponse: &r}
		}
		// A reply without certificates passes: it counts toward a rejoining
		// validator's quorum.
		return msg, ok
	default:
		return msg, true
	}
}

// verify is one public-key operation, counted.
func (pv *PreVerifier) verify(signer types.ValidatorID, msg []byte, sig crypto.Signature) bool {
	pv.verified.Add(1)
	return pv.scheme.Verify(pv.pubKeys[signer], msg, sig)
}

func (pv *PreVerifier) checkHeader(h *Header) bool {
	if h == nil || int(h.Source) >= len(pv.pubKeys) {
		return false
	}
	digest := h.Digest()
	if !pv.verify(h.Source, digest[:], h.Signature) {
		return false
	}
	// Only now: an entry vouches for the bytes it holds.
	pv.known.add(h.Source, digest, h.Signature)
	return true
}

func (pv *PreVerifier) checkVote(v *Vote) bool {
	return v != nil && int(v.Voter) < len(pv.pubKeys) && pv.verify(v.Voter, v.HeaderDigest[:], v.Signature)
}

// checkCertificate returns the certificate to pass on: c, or a new one
// holding only the votes that verified or were known. A certificate the
// engine drops unread passes as it is (see dropsUnread).
func (pv *PreVerifier) checkCertificate(c *Certificate) (*Certificate, bool) {
	if c == nil {
		return nil, false
	}
	if pv.dropsUnread(c) {
		return c, true
	}
	kept, cost, ok := verifyQuorumVotes(pv.scheme, pv.committee, pv.pubKeys, pv.known, c)
	pv.verified.Add(uint64(cost.verified))
	pv.knownVotes.Add(uint64(cost.known))
	return kept, ok
}

// dropsUnread reports whether the engine will drop c without reading its
// votes (onCertificate): its round is below the DAG's floor, or the DAG holds
// its vertex. Both stay true once true — the DAG's floor only rises, and it
// loses a vertex only below it — and the engine's floor is the DAG's, moved in
// the same step, so what the stage sees here the engine sees when the message
// reaches it.
func (pv *PreVerifier) dropsUnread(c *Certificate) bool {
	if pv.held == nil {
		return false
	}
	if c.Header.Round < pv.held.PrunedTo() {
		return true
	}
	v, ok := pv.held.Get(c.Header.Round, c.Header.Source)
	return ok && v.Digest() == c.Digest()
}

// checkCertificates checks a response's certificates, stopping at the first
// that fails. It returns them as the engine is to take them: certs, or a new
// slice (stripped) when one lost votes.
func (pv *PreVerifier) checkCertificates(certs []*Certificate) (out []*Certificate, stripped, ok bool) {
	out = certs
	for i, c := range certs {
		kept, ok := pv.checkCertificate(c)
		if !ok {
			return nil, false, false
		}
		if kept != c && !stripped {
			out, stripped = slices.Clone(certs), true
		}
		if stripped {
			out[i] = kept
		}
	}
	return out, stripped, true
}

// sigCost is what checking a certificate took: votes verified with a
// public-key operation, and votes counted as known (see knownSigs).
type sigCost struct {
	verified, known int
}

// verifyQuorumVotes decides a certificate by its votes and returns the ones
// that count: the pre-verify stage's certificate check.
//
// A certificate that breaks the vote-count rule (oneVotePerMember) is
// refused before any public-key work. Otherwise it is accepted when votes
// with valid signatures reach quorum stake: first the votes whose exact
// bytes known holds, which need no check, then the others verified in order
// until the quorum is reached. A vote from a voter outside the key set or
// with a bad signature is skipped, not fatal. It returns the certificate to
// keep: c when every vote counts, else a new certificate of the known and
// verified votes, without the forged ones and any the quorum did not need.
// c itself is never changed: others may share it.
func verifyQuorumVotes(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey, known *knownSigs, c *Certificate) (*Certificate, sigCost, bool) {
	var cost sigCost
	if !oneVotePerMember(committee, c.Votes) {
		return nil, cost, false
	}
	digest := c.Digest()
	acc := types.NewStakeAccumulator(committee)
	cost.known = known.markKnown(digest, c.Votes, acc)
	for _, vs := range c.Votes {
		if acc.ReachedQuorum() {
			break
		}
		// An unknown voter has no key: indexing pubKeys would panic.
		if acc.Has(vs.Voter) || int(vs.Voter) >= len(pubKeys) {
			continue
		}
		cost.verified++
		if scheme.Verify(pubKeys[vs.Voter], digest[:], vs.Signature) {
			acc.Add(vs.Voter)
		}
	}
	if !acc.ReachedQuorum() {
		return nil, cost, false
	}
	// Voters are distinct (the vote-count rule), so the votes that count are
	// exactly the accumulator's members.
	if acc.Count() == len(c.Votes) {
		return c, cost, true
	}
	kept := &Certificate{Header: c.Header, Votes: make([]VoteSig, 0, acc.Count())}
	for _, vs := range c.Votes {
		if acc.Has(vs.Voter) {
			kept.Votes = append(kept.Votes, vs)
		}
	}
	return kept, cost, true
}

// oneVotePerMember is the vote-count rule: a certificate carries at most one
// vote per committee member — no more votes than members, and no voter
// twice. Checked before any public-key work, it bounds what a certificate
// can cost at n verifications however many votes its frame holds, as
// dag.ErrTooManyEdges bounds a vertex's edges. certifyOwn never breaks it.
func oneVotePerMember(committee *types.Committee, votes []VoteSig) bool {
	n := committee.Size()
	if len(votes) > n {
		return false
	}
	// Every certificate every validator receives passes here, so committees
	// of up to 256 keep the set on the stack.
	var words [4]uint64
	seen := types.ValidatorSet(words[:])
	if n > 64*len(words) {
		seen = types.NewValidatorSet(n)
	}
	for i, vs := range votes {
		if int(vs.Voter) >= n {
			// Outside the committee: no slot in the set, and at most n
			// votes to compare against.
			for _, prev := range votes[:i] {
				if prev.Voter == vs.Voter {
					return false
				}
			}
			continue
		}
		if seen.Has(vs.Voter) {
			return false
		}
		seen.Add(vs.Voter)
	}
	return true
}
