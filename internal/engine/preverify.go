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
// Check is safe for concurrent use as long as each *Message is handed to
// one goroutine at a time (the node's workers each own the messages they
// pull from the queue).
type PreVerifier struct {
	committee *types.Committee
	pubKeys   []crypto.PublicKey
	scheme    crypto.Scheme

	checked atomic.Uint64
	dropped atomic.Uint64
}

// PreVerifyStats are cumulative PreVerifier counters.
type PreVerifyStats struct {
	// Checked counts messages inspected.
	Checked uint64
	// Dropped counts messages rejected for invalid signatures.
	Dropped uint64
}

// NewPreVerifier builds a pre-verify stage for one validator. Check verifies
// a message's signatures one after another on the caller's goroutine; the
// node's concurrency is its pool of pre-verify workers, not this stage.
func NewPreVerifier(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey) *PreVerifier {
	return &PreVerifier{committee: committee, pubKeys: pubKeys, scheme: scheme}
}

// Stats returns a copy of the counters.
func (pv *PreVerifier) Stats() PreVerifyStats {
	return PreVerifyStats{Checked: pv.checked.Load(), Dropped: pv.dropped.Load()}
}

// NeedsCheck reports whether messages of this kind carry signatures.
// Requests (cert/round/rejoin) are unauthenticated pulls; serving them leaks
// no state beyond what any committee member already replicates.
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
// header or vote, or a certificate whose valid-signature votes do not reach
// quorum. Invalid votes inside an otherwise-quorate certificate are
// stripped rather than fatal, matching the engine's tolerance.
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

func (pv *PreVerifier) checkHeader(h *Header) bool {
	if h == nil || int(h.Source) >= len(pv.pubKeys) {
		return false
	}
	if h.SigVerified() {
		return true
	}
	digest := h.Digest()
	if !pv.scheme.Verify(pv.pubKeys[h.Source], digest[:], h.Signature) {
		return false
	}
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
	if !pv.scheme.Verify(pv.pubKeys[v.Voter], v.HeaderDigest[:], v.Signature) {
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
	kept, ok := verifyQuorumVotes(pv.scheme, pv.committee, pv.pubKeys, c)
	if !ok {
		return false
	}
	c.Votes = kept
	c.MarkSigVerified()
	return true
}

// verifyQuorumVotes checks a certificate's vote signatures in order and
// reports whether the valid ones reach quorum stake, returning those valid
// votes. Shared by the engine's validCertificate and the pre-verify stage,
// so the two paths cannot drift: votes from voters outside the key set or
// with bad signatures are skipped (not fatal), and only the surviving stake
// decides.
func verifyQuorumVotes(scheme crypto.Scheme, committee *types.Committee, pubKeys []crypto.PublicKey, c *Certificate) ([]VoteSig, bool) {
	digest := c.Digest()
	acc := types.NewStakeAccumulator(committee)
	kept := make([]VoteSig, 0, len(c.Votes))
	for _, vs := range c.Votes {
		// An unknown voter has no key: indexing pubKeys would panic.
		if int(vs.Voter) < len(pubKeys) && scheme.Verify(pubKeys[vs.Voter], digest[:], vs.Signature) {
			kept = append(kept, vs)
			acc.Add(vs.Voter)
		}
	}
	return kept, acc.ReachedQuorum()
}
