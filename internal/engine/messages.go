// Package engine implements the networked validator protocol as a
// deterministic state machine: Narwhal-style vertex certification (header →
// votes → certificate), round pacing with the Bullshark leader-wait rule,
// causal-history synchronization, and commit delivery through the Bullshark
// committer. The same engine is driven by the discrete-event simulator
// (internal/simnet) for paper-scale experiments and by the real node
// (internal/node) over TCP.
package engine

import (
	"encoding/binary"
	"fmt"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/types"
)

// MessageKind discriminates protocol messages.
type MessageKind uint8

// Message kinds. Start at 1 so the zero value is invalid.
const (
	KindHeader MessageKind = iota + 1
	KindVote
	KindCertificate
	KindCertRequest
	KindCertResponse
	KindRoundRequest
	KindSnapshotRequest
	KindSnapshotResponse
	KindRejoinRequest
	KindRejoinResponse
	KindCheckpointSig
	KindCheckpointCert
)

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindVote:
		return "vote"
	case KindCertificate:
		return "certificate"
	case KindCertRequest:
		return "cert-request"
	case KindCertResponse:
		return "cert-response"
	case KindRoundRequest:
		return "round-request"
	case KindSnapshotRequest:
		return "snapshot-request"
	case KindSnapshotResponse:
		return "snapshot-response"
	case KindRejoinRequest:
		return "rejoin-request"
	case KindRejoinResponse:
		return "rejoin-response"
	case KindCheckpointSig:
		return "checkpoint-sig"
	case KindCheckpointCert:
		return "checkpoint-cert"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Header is a proposed vertex: the block a validator offers for round r,
// referencing a quorum of round r-1 certificates.
type Header struct {
	Round        types.Round
	Source       types.ValidatorID
	Edges        []types.Digest
	Batch        *types.Batch
	CreatedNanos int64
	// Signature covers the header digest.
	Signature crypto.Signature

	// Digest memos: headers are immutable once signed, and their digests
	// are requested on every hop (vote checks, certificate validation,
	// vertex construction). The memo fields never cross the wire, so each
	// process computes at most once per header copy.
	digestMemo  types.Digest
	digestOK    bool
	batchMemo   types.Digest
	batchMemoOK bool
	vertexMemo  *dag.Vertex // see Vertex; a copy of the header shares it

	sigVerified bool
}

// MarkSigVerified records that the header's signature was already checked by
// an upstream pre-verify stage, letting the engine skip the redundant
// public-key operation. The mark is unexported state the wire codec never
// transmits, so it can only be set by local code that actually verified.
func (h *Header) MarkSigVerified() { h.sigVerified = true }

// SigVerified reports whether the header's signature was pre-verified.
func (h *Header) SigVerified() bool { return h.sigVerified }

// Digest returns the content address of the header, shared with the
// certificate and DAG vertex it becomes.
//
//hammerlint:deterministic
func (h *Header) Digest() types.Digest {
	if !h.digestOK {
		h.digestMemo = dag.ComputeDigest(h.Round, h.Source, h.Edges, h.batchDigest())
		h.digestOK = true
	}
	return h.digestMemo
}

func (h *Header) batchDigest() types.Digest {
	if h.batchMemoOK {
		return h.batchMemo
	}
	if h.Batch == nil || len(h.Batch.Transactions) == 0 {
		h.batchMemo = types.ZeroDigest
	} else {
		buf := make([]byte, 8*len(h.Batch.Transactions))
		for i := range h.Batch.Transactions {
			binary.BigEndian.PutUint64(buf[i*8:], h.Batch.Transactions[i].ID)
		}
		h.batchMemo = types.HashBytes(buf)
	}
	h.batchMemoOK = true
	return h.batchMemo
}

// Vertex returns the DAG vertex the header's certificate certifies, built once
// from the memoized digests: it is immutable and a DAG keeps what it resolved
// about it in its own slots, so a certificate delivered in-process to n
// validators is one vertex, not n.
func (h *Header) Vertex() *dag.Vertex {
	if h.vertexMemo == nil {
		h.vertexMemo = dag.NewVertexPrecomputed(h.Round, h.Source, h.Edges, h.Batch, h.CreatedNanos, h.batchDigest(), h.Digest())
	}
	return h.vertexMemo
}

// EncodedSize approximates the wire size in bytes, used by the simulator's
// bandwidth model.
func (h *Header) EncodedSize() int {
	n := 8 + 4 + 8 + len(h.Signature) + len(h.Edges)*types.DigestSize
	if h.Batch != nil {
		n += h.Batch.EncodedSize()
	}
	return n
}

// Vote endorses a header. One vote per (source, round) per voter.
type Vote struct {
	HeaderDigest types.Digest
	Round        types.Round
	Origin       types.ValidatorID // the header's source
	Voter        types.ValidatorID
	Signature    crypto.Signature

	sigVerified bool
}

// MarkSigVerified records an upstream signature check (see Header).
func (v *Vote) MarkSigVerified() { v.sigVerified = true }

// SigVerified reports whether the vote's signature was pre-verified.
func (v *Vote) SigVerified() bool { return v.sigVerified }

// EncodedSize approximates the wire size in bytes.
func (v *Vote) EncodedSize() int {
	return types.DigestSize + 8 + 4 + 4 + len(v.Signature)
}

// VoteSig is one voter's signature inside a certificate.
type VoteSig struct {
	Voter     types.ValidatorID
	Signature crypto.Signature
}

// Certificate proves a quorum endorsed the header; it is the unit inserted
// into the DAG.
type Certificate struct {
	Header Header
	Votes  []VoteSig

	sigVerified bool
}

// MarkSigVerified records that a quorum of the certificate's vote signatures
// was already checked by an upstream pre-verify stage (see Header).
func (c *Certificate) MarkSigVerified() { c.sigVerified = true }

// SigVerified reports whether the certificate's quorum was pre-verified.
func (c *Certificate) SigVerified() bool { return c.sigVerified }

// Digest returns the certified vertex digest.
func (c *Certificate) Digest() types.Digest { return c.Header.Digest() }

// EncodedSize approximates the wire size in bytes.
func (c *Certificate) EncodedSize() int {
	n := c.Header.EncodedSize()
	for i := range c.Votes {
		n += 4 + len(c.Votes[i].Signature)
	}
	return n
}

// CertRequest asks a peer for certificates by digest (causal-history sync).
type CertRequest struct {
	Digests []types.Digest
}

// EncodedSize approximates the wire size in bytes.
func (r *CertRequest) EncodedSize() int { return 8 + len(r.Digests)*types.DigestSize }

// RoundRequest asks a peer for every certificate it holds from FromRound on
// — the anti-deadlock pull: when a validator observes no round progress for
// a while (lost certificate broadcasts can stall a whole committee at one
// round with nothing referencing the lost certs), it asks a rotating peer
// for the frontier. Narwhal's certificate fetcher plays the same role.
type RoundRequest struct {
	FromRound types.Round
}

// EncodedSize approximates the wire size in bytes.
func (r *RoundRequest) EncodedSize() int { return 8 }

// SnapshotRequest asks a peer for a chunk of its latest execution checkpoint
// — the state-sync pull a validator sends when the network's certificate
// frontier sits beyond its GC horizon (the gap can never be closed by
// certificate sync: peers pruned that history). Fetches are chunked and
// resumable: the requester pins the checkpoint round after the first
// response and pulls chunks in order from one responder (snapshot encodings
// are not byte-identical across validators, so chunks never mix responders).
type SnapshotRequest struct {
	// HaveRound is the requester's applied round; the responder only serves
	// checkpoints strictly newer.
	HaveRound types.Round
	// Round pins the checkpoint being fetched (0 on the first request: the
	// responder's latest). Chunk is the zero-based chunk index.
	Round types.Round
	Chunk uint32
}

// EncodedSize approximates the wire size in bytes.
func (r *SnapshotRequest) EncodedSize() int { return 8 + 8 + 4 }

// SnapshotResponse carries one chunk of a checkpoint snapshot, plus the
// checkpoint identity the installer verifies. Round == 0 means the responder
// holds no checkpoint newer than the requester's HaveRound.
type SnapshotResponse struct {
	Round       types.Round
	CommitSeq   uint64
	StateRoot   types.Digest
	StateDigest types.Digest
	// Chunks is the total chunk count; Chunk indexes this one.
	Chunks uint32
	Chunk  uint32
	Data   []byte
	// DataCRC is the CRC32-C of Data. The requester verifies it on receipt,
	// so a corrupted chunk is dropped (and re-pulled by the pacing timer)
	// instead of poisoning the whole assembled snapshot — without it, one bad
	// chunk is only detected by the installer's state-digest recomputation
	// after the entire (up to 256MB) fetch completed.
	DataCRC uint32
}

// EncodedSize approximates the wire size in bytes.
func (r *SnapshotResponse) EncodedSize() int {
	return 8 + 8 + 2*types.DigestSize + 4 + 4 + 4 + 8 + len(r.Data)
}

// Frontier summarizes a validator's recovered state for the crash-rejoin
// handshake: how far its replayed DAG, its committer and its execution layer
// reach. AppliedSeq is 0 when the validator runs no execution subsystem.
type Frontier struct {
	// HighestRound is the highest DAG round holding at least one certificate.
	HighestRound types.Round
	// LastOrdered is the committer's last ordered (committed) round.
	LastOrdered types.Round
	// AppliedSeq is the execution layer's applied commit sequence.
	AppliedSeq uint64
}

// RejoinRequest opens the crash-rejoin handshake: a validator that just
// restarted from its WAL broadcasts its replayed frontier. Replay-time
// proposals were never on the wire, so after a correlated restart (every
// validator SIGKILLed and recovered simultaneously) the committee would
// otherwise wedge at its pre-crash round — nobody holds the proposals the
// dead processes kept in memory, and nothing new ever gets transmitted.
type RejoinRequest struct {
	Frontier Frontier
}

// EncodedSize approximates the wire size in bytes.
func (r *RejoinRequest) EncodedSize() int { return 8 + 8 + 8 }

// RejoinResponse answers a RejoinRequest: the responder's own frontier plus
// its retained certificates from the requester's frontier round on (capped at
// MaxSyncBatch), so the requester rebuilds the frontier rounds without extra
// round-trips. Once a rejoining validator has gathered responses worth a
// write quorum (counting itself), it re-proposes into a fresh round strictly
// above every round the merged frontier can still complete.
type RejoinResponse struct {
	Frontier Frontier
	Certs    []*Certificate
	// Offer, when non-nil, advertises the responder's latest execution
	// checkpoint (round + digests). A far-behind rejoiner — one whose gap can
	// only close through snapshot state-sync — uses it to start the fetch
	// immediately, pinned to the offered checkpoint, instead of first
	// discovering via a blind SnapshotRequest which checkpoint the responder
	// holds: one round-trip saved exactly when the node is slowest.
	Offer *SnapshotMeta
}

// EncodedSize approximates the wire size in bytes.
func (r *RejoinResponse) EncodedSize() int {
	n := 8 + 8 + 8 + 8
	if r.Offer != nil {
		n += 8 + 8 + 2*types.DigestSize
	}
	for _, c := range r.Certs {
		n += c.EncodedSize()
	}
	return n
}

// CertResponse returns requested certificates.
type CertResponse struct {
	Certs []*Certificate
}

// EncodedSize approximates the wire size in bytes.
func (r *CertResponse) EncodedSize() int {
	n := 8
	for _, c := range r.Certs {
		n += c.EncodedSize()
	}
	return n
}

// Message is the transport envelope: exactly one payload field is set,
// matching Kind. A flat struct keeps runtime dispatch a single switch.
type Message struct {
	Kind             MessageKind
	Header           *Header
	Vote             *Vote
	Cert             *Certificate
	CertRequest      *CertRequest
	CertResponse     *CertResponse
	RoundRequest     *RoundRequest
	SnapshotRequest  *SnapshotRequest
	SnapshotResponse *SnapshotResponse
	RejoinRequest    *RejoinRequest
	RejoinResponse   *RejoinResponse
	// CheckpointSig is one validator's signature over a checkpoint tuple;
	// CheckpointCert an assembled 2f+1 certificate (see internal/checkpoint).
	CheckpointSig  *checkpoint.Share
	CheckpointCert *checkpoint.Certificate
}

// Clone returns a copy of the message whose mutable payload state — the
// Header/Vote/Certificate structs, certificate vote lists and the
// sig-verified marks — is private to the recipient. In-process transports
// must deliver clones: recipients mark (and may strip votes from) payloads
// during pre-verification, and the TCP wire naturally isolates recipients
// by decoding a fresh copy per peer. Marks are cleared, exactly as a wire
// round-trip would: a clone is untrusted input to its receiver.
// Immutable byte material (edges, batches, signatures) is shared.
func (m *Message) Clone() *Message {
	c := *m
	switch m.Kind {
	case KindHeader:
		if m.Header != nil {
			h := *m.Header
			h.sigVerified = false
			c.Header = &h
		}
	case KindVote:
		if m.Vote != nil {
			v := *m.Vote
			v.sigVerified = false
			c.Vote = &v
		}
	case KindCertificate:
		c.Cert = m.Cert.clone()
	case KindCertResponse:
		if m.CertResponse != nil {
			certs := make([]*Certificate, len(m.CertResponse.Certs))
			for i, cert := range m.CertResponse.Certs {
				certs[i] = cert.clone()
			}
			c.CertResponse = &CertResponse{Certs: certs}
		}
	case KindRejoinResponse:
		if m.RejoinResponse != nil {
			certs := make([]*Certificate, len(m.RejoinResponse.Certs))
			for i, cert := range m.RejoinResponse.Certs {
				certs[i] = cert.clone()
			}
			// The Offer is read-only metadata; sharing it is safe.
			c.RejoinResponse = &RejoinResponse{Frontier: m.RejoinResponse.Frontier, Certs: certs, Offer: m.RejoinResponse.Offer}
		}
	case KindCheckpointCert:
		c.CheckpointCert = m.CheckpointCert.Clone()
	}
	// CertRequest / RoundRequest / RejoinRequest / Snapshot* / CheckpointSig
	// payloads are read-only (and the snapshot chunk bytes are immutable once
	// encoded); sharing is safe.
	return &c
}

func (c *Certificate) clone() *Certificate {
	if c == nil {
		return nil
	}
	d := *c
	d.sigVerified = false
	d.Votes = append([]VoteSig(nil), c.Votes...)
	return &d
}

// EncodedSize approximates the wire size in bytes.
func (m *Message) EncodedSize() int {
	n := 1
	switch m.Kind {
	case KindHeader:
		n += m.Header.EncodedSize()
	case KindVote:
		n += m.Vote.EncodedSize()
	case KindCertificate:
		n += m.Cert.EncodedSize()
	case KindCertRequest:
		n += m.CertRequest.EncodedSize()
	case KindCertResponse:
		n += m.CertResponse.EncodedSize()
	case KindRoundRequest:
		n += m.RoundRequest.EncodedSize()
	case KindSnapshotRequest:
		n += m.SnapshotRequest.EncodedSize()
	case KindSnapshotResponse:
		n += m.SnapshotResponse.EncodedSize()
	case KindRejoinRequest:
		n += m.RejoinRequest.EncodedSize()
	case KindRejoinResponse:
		n += m.RejoinResponse.EncodedSize()
	case KindCheckpointSig:
		n += 16 + 3*types.DigestSize + 4 + len(m.CheckpointSig.Signature)
	case KindCheckpointCert:
		n += m.CheckpointCert.EncodedSize()
	}
	return n
}

// String implements fmt.Stringer for logs.
func (m *Message) String() string {
	switch m.Kind {
	case KindHeader:
		return fmt.Sprintf("header{r=%d src=%s}", m.Header.Round, m.Header.Source)
	case KindVote:
		return fmt.Sprintf("vote{r=%d origin=%s voter=%s}", m.Vote.Round, m.Vote.Origin, m.Vote.Voter)
	case KindCertificate:
		return fmt.Sprintf("cert{r=%d src=%s}", m.Cert.Header.Round, m.Cert.Header.Source)
	case KindCertRequest:
		return fmt.Sprintf("cert-request{%d digests}", len(m.CertRequest.Digests))
	case KindCertResponse:
		return fmt.Sprintf("cert-response{%d certs}", len(m.CertResponse.Certs))
	case KindRoundRequest:
		return fmt.Sprintf("round-request{from=%d}", m.RoundRequest.FromRound)
	case KindSnapshotRequest:
		return fmt.Sprintf("snapshot-request{have=%d round=%d chunk=%d}",
			m.SnapshotRequest.HaveRound, m.SnapshotRequest.Round, m.SnapshotRequest.Chunk)
	case KindSnapshotResponse:
		return fmt.Sprintf("snapshot-response{round=%d seq=%d chunk=%d/%d |%dB|}",
			m.SnapshotResponse.Round, m.SnapshotResponse.CommitSeq,
			m.SnapshotResponse.Chunk, m.SnapshotResponse.Chunks, len(m.SnapshotResponse.Data))
	case KindRejoinRequest:
		return fmt.Sprintf("rejoin-request{frontier=%d ordered=%d seq=%d}",
			m.RejoinRequest.Frontier.HighestRound, m.RejoinRequest.Frontier.LastOrdered,
			m.RejoinRequest.Frontier.AppliedSeq)
	case KindRejoinResponse:
		return fmt.Sprintf("rejoin-response{frontier=%d ordered=%d %d certs}",
			m.RejoinResponse.Frontier.HighestRound, m.RejoinResponse.Frontier.LastOrdered,
			len(m.RejoinResponse.Certs))
	case KindCheckpointSig:
		return fmt.Sprintf("checkpoint-sig{seq=%d r=%d v=%s}",
			m.CheckpointSig.Meta.CommitSeq, m.CheckpointSig.Meta.Round, m.CheckpointSig.Validator)
	case KindCheckpointCert:
		return fmt.Sprintf("checkpoint-cert{seq=%d r=%d %d sigs}",
			m.CheckpointCert.Meta.CommitSeq, m.CheckpointCert.Meta.Round, len(m.CheckpointCert.Sigs))
	default:
		return m.Kind.String()
	}
}
