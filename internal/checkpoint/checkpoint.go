// Package checkpoint binds execution checkpoints to validator quorums: after
// each checkpoint, every validator signs the (round, commit seq, state root,
// state digest, scheduler digest) tuple and gossips the signature; 2f+1 such
// shares assemble into a Certificate. A certificate turns a snapshot from
// "bytes one responder claims are the state" into "the state 2f+1 validators
// executed" — the trust anchor for snapshot installs, read replicas and
// proof-carrying reads.
//
// The package sits below the engine (which carries shares and certificates
// as protocol messages) and the execution layer (whose snapshots embed the
// certificate): it imports only types and crypto, so both can depend on it
// without a cycle.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// signingDomain prefixes every checkpoint preimage, separating these
// signatures from header/vote signatures under the same keys.
var signingDomain = []byte("hammerhead/checkpoint/v1")

// Meta is the tuple a checkpoint certificate certifies.
type Meta struct {
	// Round and CommitSeq locate the checkpoint (see execution.Checkpoint).
	Round     types.Round
	CommitSeq uint64
	// StateRoot is the executor's chained per-commit root at the checkpoint.
	StateRoot types.Digest
	// StateDigest is the state machine's content digest (for the built-in
	// KVState: op counters + Merkle root, see execution.StateDigestFrom).
	StateDigest types.Digest
	// SchedDigest is sha256 of the encoded scheduler state riding in the
	// snapshot (zero when the snapshot carries none), so a certificate also
	// pins the reputation schedule a replica or installer adopts.
	SchedDigest types.Digest
}

// SchedDigestOf hashes an encoded scheduler state for Meta.SchedDigest
// (zero digest for empty state).
//
//hammerlint:deterministic
func SchedDigestOf(schedState []byte) types.Digest {
	if len(schedState) == 0 {
		return types.ZeroDigest
	}
	return sha256.Sum256(schedState)
}

// SigningBytes is the deterministic preimage validators sign for m.
//
//hammerlint:deterministic
func SigningBytes(m Meta) []byte {
	buf := make([]byte, 0, len(signingDomain)+16+3*types.DigestSize)
	buf = append(buf, signingDomain...)
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], uint64(m.Round))
	buf = append(buf, u[:]...)
	binary.BigEndian.PutUint64(u[:], m.CommitSeq)
	buf = append(buf, u[:]...)
	buf = append(buf, m.StateRoot[:]...)
	buf = append(buf, m.StateDigest[:]...)
	buf = append(buf, m.SchedDigest[:]...)
	return buf
}

// tupleKey is Meta's comparable form, used to bucket shares: shares only
// aggregate when they certify the exact same tuple, so a validator that
// diverged (different roots at the same seq) can never pollute a quorum.
type tupleKey [8 + 8 + 3*types.DigestSize]byte

func metaKey(m Meta) tupleKey {
	var k tupleKey
	binary.BigEndian.PutUint64(k[0:8], uint64(m.Round))
	binary.BigEndian.PutUint64(k[8:16], m.CommitSeq)
	copy(k[16:], m.StateRoot[:])
	copy(k[16+types.DigestSize:], m.StateDigest[:])
	copy(k[16+2*types.DigestSize:], m.SchedDigest[:])
	return k
}

// Share is one validator's signature over a checkpoint tuple.
type Share struct {
	Meta      Meta
	Validator types.ValidatorID
	Signature crypto.Signature
}

// Sign builds a validator's share for m.
func Sign(m Meta, validator types.ValidatorID, keys crypto.KeyPair) (Share, error) {
	sig, err := keys.Sign(SigningBytes(m))
	if err != nil {
		return Share{}, fmt.Errorf("checkpoint: signing share: %w", err)
	}
	return Share{Meta: m, Validator: validator, Signature: sig}, nil
}

// VerifyShare checks one share's signature against the validator's key.
func VerifyShare(sh Share, scheme crypto.Scheme, pub crypto.PublicKey) bool {
	return scheme.Verify(pub, SigningBytes(sh.Meta), sh.Signature)
}

// Sig is one validator's signature inside a certificate.
type Sig struct {
	Validator types.ValidatorID
	Signature crypto.Signature
}

// Certificate proves a stake quorum (2f+1 equivalent) executed to the
// checkpoint tuple. Sigs are sorted by validator ID (deterministic wire
// form; Verify enforces strict ascending order, which also bans duplicates).
type Certificate struct {
	Meta Meta
	Sigs []Sig
}

// Certificate verification errors.
var (
	ErrNoQuorum     = errors.New("checkpoint: certificate signers below quorum stake")
	ErrBadSignature = errors.New("checkpoint: invalid signature in certificate")
	ErrBadSigner    = errors.New("checkpoint: certificate signers not strictly ascending committee members")
)

// Verify checks the certificate against a committee: strictly ascending
// known signers, every signature valid over SigningBytes(Meta), and total
// signer stake at or above the committee's quorum threshold.
func (c *Certificate) Verify(committee *types.Committee, pubs []crypto.PublicKey, scheme crypto.Scheme) error {
	msg := SigningBytes(c.Meta)
	acc := types.NewStakeAccumulator(committee)
	last := -1
	for _, s := range c.Sigs {
		if int(s.Validator) <= last || int(s.Validator) >= committee.Size() || int(s.Validator) >= len(pubs) {
			return ErrBadSigner
		}
		last = int(s.Validator)
		if !scheme.Verify(pubs[s.Validator], msg, s.Signature) {
			return fmt.Errorf("%w (validator %s)", ErrBadSignature, s.Validator)
		}
		acc.Add(s.Validator)
	}
	if !acc.ReachedQuorum() {
		return fmt.Errorf("%w (%d/%d stake)", ErrNoQuorum, acc.Total(), committee.QuorumThreshold())
	}
	return nil
}

// Matches reports whether the certificate certifies exactly the given tuple.
func (c *Certificate) Matches(m Meta) bool {
	return c.Meta == m
}

// EncodedSize approximates the wire size in bytes (simulator bandwidth
// model).
func (c *Certificate) EncodedSize() int {
	n := 16 + 3*types.DigestSize
	for i := range c.Sigs {
		n += 4 + len(c.Sigs[i].Signature)
	}
	return n
}

// Equal reports deep equality: the same tuple, and the same signers with the
// same signature bytes in the same order.
func (c *Certificate) Equal(o *Certificate) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.Meta != o.Meta || len(c.Sigs) != len(o.Sigs) {
		return false
	}
	for i := range c.Sigs {
		if c.Sigs[i].Validator != o.Sigs[i].Validator || !bytes.Equal(c.Sigs[i].Signature, o.Sigs[i].Signature) {
			return false
		}
	}
	return true
}

// Accumulator assembles certificates from shares, bucketed by the exact
// checkpoint tuple. The caller verifies share signatures BEFORE adding
// (the accumulator only does set/stake arithmetic). Not safe for concurrent
// use — the engine drives it from its single-threaded loop.
type Accumulator struct {
	committee *types.Committee
	// buckets: commit seq → tuple key → collected shares by validator.
	buckets map[uint64]map[tupleKey]map[types.ValidatorID]crypto.Signature
	done    map[uint64]bool
	floor   uint64
}

// NewAccumulator returns an empty accumulator over the committee.
func NewAccumulator(committee *types.Committee) *Accumulator {
	return &Accumulator{
		committee: committee,
		buckets:   make(map[uint64]map[tupleKey]map[types.ValidatorID]crypto.Signature),
		done:      make(map[uint64]bool),
	}
}

// Add records a (signature-verified) share. It returns the assembled
// certificate exactly once: on the add that first reaches quorum stake for
// one tuple at that commit seq; nil otherwise (duplicate, stale, or quorum
// still pending).
func (a *Accumulator) Add(sh Share) *Certificate {
	seq := sh.Meta.CommitSeq
	if seq < a.floor || a.done[seq] {
		return nil
	}
	key := metaKey(sh.Meta)
	byTuple, ok := a.buckets[seq]
	if !ok {
		byTuple = make(map[tupleKey]map[types.ValidatorID]crypto.Signature)
		a.buckets[seq] = byTuple
	}
	sigs, ok := byTuple[key]
	if !ok {
		sigs = make(map[types.ValidatorID]crypto.Signature)
		byTuple[key] = sigs
	}
	if _, dup := sigs[sh.Validator]; dup {
		return nil
	}
	sigs[sh.Validator] = sh.Signature
	acc := types.NewStakeAccumulator(a.committee)
	for id := range sigs {
		acc.Add(id)
	}
	if !acc.ReachedQuorum() {
		return nil
	}
	cert := &Certificate{Meta: sh.Meta, Sigs: make([]Sig, 0, len(sigs))}
	ids := make([]types.ValidatorID, 0, len(sigs))
	for id := range sigs {
		ids = append(ids, id)
	}
	types.SortValidatorIDs(ids)
	for _, id := range ids {
		cert.Sigs = append(cert.Sigs, Sig{Validator: id, Signature: sigs[id]})
	}
	a.done[seq] = true
	delete(a.buckets, seq)
	return cert
}

// PruneTo drops all pending share state at or below seq; later Adds for
// those sequences are ignored. Bounds memory against validators that gossip
// shares for long-gone checkpoints.
func (a *Accumulator) PruneTo(seq uint64) {
	if seq < a.floor {
		return
	}
	a.floor = seq + 1
	for s := range a.buckets {
		if s <= seq {
			delete(a.buckets, s)
		}
	}
	for s := range a.done {
		if s <= seq {
			delete(a.done, s)
		}
	}
}

// Pending returns how many commit sequences still collect shares (tests,
// metrics).
func (a *Accumulator) Pending() int { return len(a.buckets) }
