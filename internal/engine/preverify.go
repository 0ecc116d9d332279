package engine

import (
	"sync/atomic"

	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// PreVerifier validates message signatures before they reach the engine, so
// the expensive public-key work happens off the single-threaded state
// machine. The node runtime runs Check on a pool of goroutines between the
// transport and the engine loop; the simulator runs it synchronously at
// delivery when signature verification is enabled. Payloads that pass are
// marked (Header/Vote/Certificate.MarkSigVerified), so the engine skips the
// redundant re-verification; messages that fail should be dropped without
// ever entering the engine.
//
// A signature is checked once: the stage shares its validator's KnownSigs
// table with the engine, adds every header signature that verifies to it,
// and counts a certificate vote whose exact bytes the table holds without a
// second public-key operation.
//
// Check is safe for concurrent use as long as each *Message is handed to
// one goroutine at a time (the node's workers each own the messages they
// pull from the queue).
type PreVerifier struct {
	committee *types.Committee
	pubKeys   []crypto.PublicKey
	scheme    crypto.Scheme
	known     *KnownSigs

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
	// were already verified, or signed, by this validator (see KnownSigs).
	Known uint64
}

// NewPreVerifier builds a pre-verify stage for one validator over its
// KnownSigs table (nil: none, every signature is verified). Check verifies a
// message's signatures one after another on the caller's goroutine; the
// node's concurrency is its pool of pre-verify workers, not this stage.
func NewPreVerifier(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey, known *KnownSigs) *PreVerifier {
	return &PreVerifier{committee: committee, pubKeys: pubKeys, scheme: scheme, known: known}
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
// Requests (cert/round/rejoin) are unauthenticated pulls; serving them leaks
// no state beyond what any committee member already replicates. Checkpoint
// shares and certificates are checked by the engine: a peer's checkpoint
// certificate is verified only when the validator has not certified that
// checkpoint itself, and shares queued here would let those certificates
// overtake them.
func NeedsCheck(kind MessageKind) bool {
	switch kind {
	case KindHeader, KindVote, KindCertificate, KindCertResponse, KindRejoinResponse:
		return true
	default:
		return false
	}
}

// Check verifies every signature msg carries and marks the payloads that
// pass. It returns false when the message should be dropped: a forged
// header or vote, or a certificate that breaks the vote-count rule or whose
// valid-signature votes do not reach quorum. Invalid votes inside an
// otherwise-quorate certificate are stripped rather than fatal, matching the
// engine's tolerance.
func (pv *PreVerifier) Check(msg *Message) bool {
	pv.checked.Add(1)
	ok := pv.check(msg)
	if !ok {
		pv.dropped.Add(1)
	}
	return ok
}

func (pv *PreVerifier) check(msg *Message) bool {
	switch msg.Kind {
	case KindHeader:
		return pv.checkHeader(msg.Header)
	case KindVote:
		return pv.checkVote(msg.Vote)
	case KindCertificate:
		return pv.checkCertificate(msg.Cert)
	case KindCertResponse:
		if msg.CertResponse == nil {
			return false
		}
		// A sync response is useful as long as something in it survives;
		// invalid certificates are dropped from the batch, not fatal to it.
		kept := msg.CertResponse.Certs[:0]
		for _, c := range msg.CertResponse.Certs {
			if pv.checkCertificate(c) {
				kept = append(kept, c)
			}
		}
		msg.CertResponse.Certs = kept
		return len(kept) > 0
	case KindRejoinResponse:
		if msg.RejoinResponse == nil {
			return false
		}
		// Unlike a CertResponse, a rejoin response stripped of every
		// certificate is still meaningful: the frontier it carries counts
		// toward the restarting validator's gathering quorum.
		kept := msg.RejoinResponse.Certs[:0]
		for _, c := range msg.RejoinResponse.Certs {
			if pv.checkCertificate(c) {
				kept = append(kept, c)
			}
		}
		msg.RejoinResponse.Certs = kept
		return true
	default:
		return true
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
	if h.SigVerified() {
		return true
	}
	digest := h.Digest()
	if !pv.verify(h.Source, digest[:], h.Signature) {
		return false
	}
	// Only now: an entry vouches for the bytes it holds.
	pv.known.add(h.Source, digest, h.Signature)
	h.MarkSigVerified()
	return true
}

func (pv *PreVerifier) checkVote(v *Vote) bool {
	if v == nil || int(v.Voter) >= len(pv.pubKeys) {
		return false
	}
	if v.SigVerified() {
		return true
	}
	if !pv.verify(v.Voter, v.HeaderDigest[:], v.Signature) {
		return false
	}
	v.MarkSigVerified()
	return true
}

func (pv *PreVerifier) checkCertificate(c *Certificate) bool {
	if c == nil {
		return false
	}
	if c.SigVerified() {
		return true
	}
	kept, cost, ok := verifyQuorumVotes(pv.scheme, pv.committee, pv.pubKeys, pv.known, c)
	pv.verified.Add(uint64(cost.verified))
	pv.knownVotes.Add(uint64(cost.known))
	if !ok {
		return false
	}
	c.Votes = kept
	c.MarkSigVerified()
	return true
}

// sigCost is what checking a certificate took: votes verified with a
// public-key operation, and votes counted as known (see KnownSigs).
type sigCost struct {
	verified, known int
}

// verifyQuorumVotes decides a certificate by its votes and returns the ones
// that count. Shared by the engine's validCertificate and the pre-verify
// stage, so the two paths cannot drift.
//
// A certificate that breaks the vote-count rule (oneVotePerMember) is
// refused before any public-key work. Otherwise it is accepted when votes
// with valid signatures reach quorum stake: first the votes whose exact
// bytes known holds, which need no check, then the others verified in order
// until the quorum is reached. A vote from a voter outside the key set or
// with a bad signature is skipped, not fatal. The votes returned are the
// known and verified ones: forged votes and any the quorum did not need are
// stripped.
func verifyQuorumVotes(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey, known *KnownSigs, c *Certificate) ([]VoteSig, sigCost, bool) {
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
		return c.Votes, cost, true
	}
	kept := make([]VoteSig, 0, acc.Count())
	for _, vs := range c.Votes {
		if acc.Has(vs.Voter) {
			kept = append(kept, vs)
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
