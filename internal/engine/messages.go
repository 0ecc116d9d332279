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

// Message kinds. Start at 1 so the zero value is invalid. A retired kind's
// byte is never reused, so a frame carrying one decodes as an error.
const (
	KindHeader MessageKind = iota + 1
	KindVote
	KindCertificate
	_ // 4, retired: the pull of certificates by digest, now a round pull
	KindCertResponse
	KindRoundRequest
	KindSnapshotRequest
	KindSnapshotResponse
	_ // 9, retired: the crash-rejoin handshake's request, now a round pull
	_ // 10, retired: its reply, now a CertResponse
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
	case KindCertResponse:
		return "cert-response"
	case KindRoundRequest:
		return "round-request"
	case KindSnapshotRequest:
		return "snapshot-request"
	case KindSnapshotResponse:
		return "snapshot-response"
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
}

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
}

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
}

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

// RoundRequest asks a peer for every certificate it holds from FromRound on:
// the one certificate pull. A validator sends it to a certificate's source
// when the certificate arrived before its parents, from the round below it
// (edges point one round back, so the reply holds every parent it misses);
// from the highest round it holds when the certificate sits far above that,
// and on again while replies come back full (catch-up); from a rotating peer
// when it observed no round progress for a while (lost certificate
// broadcasts can stall a whole committee at one round with nothing
// referencing the lost certs) or certificates still wait for parents; and,
// broadcast from its highest DAG round, to rejoin after a crash (see
// rejoin.go). FromRound is never above the highest round the requester
// holds. Narwhal's certificate fetcher, which fetches by round as well,
// plays the same role.
type RoundRequest struct {
	FromRound types.Round
}

// EncodedSize approximates the wire size in bytes.
func (r *RoundRequest) EncodedSize() int { return 8 }

// SnapshotRequest asks a peer for a chunk of an execution checkpoint — the
// state-sync pull a validator sends once a pull's reply offered a checkpoint
// beyond its GC horizon (the gap can never be closed by certificate sync:
// peers pruned that history). Fetches are chunked and resumable: every
// request pins the offered checkpoint round and chunks come in order from
// one responder (snapshot encodings are not byte-identical across
// validators, so chunks never mix responders).
type SnapshotRequest struct {
	// HaveRound is the requester's applied round; the responder only serves
	// checkpoints strictly newer.
	HaveRound types.Round
	// Round pins the checkpoint being fetched; a responder that no longer
	// holds it serves its latest. Chunk is the zero-based chunk index.
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

// CertResponse answers a RoundRequest from FromRound with the responder's
// retained certificates from that round on, at most maxSyncBatch of them. It
// is sent even with no certificates, so a rejoining validator can count the
// reply toward its quorum; a full one tells the requester to pull on.
type CertResponse struct {
	FromRound types.Round
	Certs     []*Certificate
	// Offer, when non-nil, advertises the responder's latest execution
	// checkpoint. A responder attaches it when the pulled rounds lie below
	// its pruning floor: the requester misses history nobody retains, and
	// the offer tells it which checkpoint to fetch instead.
	Offer *SnapshotMeta
}

// EncodedSize approximates the wire size in bytes.
func (r *CertResponse) EncodedSize() int {
	n := 1 + 8 + 8
	if r.Offer != nil {
		n += 8 + 8 + 2*types.DigestSize
	}
	for _, c := range r.Certs {
		n += c.EncodedSize()
	}
	return n
}

// Message is the transport envelope: exactly one payload field is set,
// matching Kind. A flat struct keeps runtime dispatch a single switch. A
// message is immutable once built: no recipient writes to it, so one message
// serves every in-process recipient (see seal).
type Message struct {
	Kind             MessageKind
	Header           *Header
	Vote             *Vote
	Cert             *Certificate
	CertResponse     *CertResponse
	RoundRequest     *RoundRequest
	SnapshotRequest  *SnapshotRequest
	SnapshotResponse *SnapshotResponse
	// CheckpointSig is one validator's signature over a checkpoint tuple;
	// CheckpointCert an assembled 2f+1 certificate (see internal/checkpoint).
	CheckpointSig  *checkpoint.Share
	CheckpointCert *checkpoint.Certificate
}

// seal fills the memos a reader would otherwise fill on first use: a
// header's digests and a certificate's vertex. A message is immutable once
// sealed, so an in-process transport hands the one *Message to every
// recipient, each reading it on its own goroutine. Output seals every message
// the engine sends.
func (m *Message) seal() {
	switch m.Kind {
	case KindHeader:
		m.Header.Digest()
	case KindCertificate:
		m.Cert.Header.Vertex()
	case KindCertResponse:
		for _, c := range m.CertResponse.Certs {
			c.Header.Vertex()
		}
	}
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
	case KindCertResponse:
		n += m.CertResponse.EncodedSize()
	case KindRoundRequest:
		n += m.RoundRequest.EncodedSize()
	case KindSnapshotRequest:
		n += m.SnapshotRequest.EncodedSize()
	case KindSnapshotResponse:
		n += m.SnapshotResponse.EncodedSize()
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
	case KindCertResponse:
		r := m.CertResponse
		return fmt.Sprintf("cert-response{from=%d, %d certs, offer=%v}", r.FromRound, len(r.Certs), r.Offer != nil)
	case KindRoundRequest:
		return fmt.Sprintf("round-request{from=%d}", m.RoundRequest.FromRound)
	case KindSnapshotRequest:
		return fmt.Sprintf("snapshot-request{have=%d round=%d chunk=%d}",
			m.SnapshotRequest.HaveRound, m.SnapshotRequest.Round, m.SnapshotRequest.Chunk)
	case KindSnapshotResponse:
		return fmt.Sprintf("snapshot-response{round=%d seq=%d chunk=%d/%d |%dB|}",
			m.SnapshotResponse.Round, m.SnapshotResponse.CommitSeq,
			m.SnapshotResponse.Chunk, m.SnapshotResponse.Chunks, len(m.SnapshotResponse.Data))
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
