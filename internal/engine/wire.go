package engine

import (
	"fmt"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
	"hammerhead/internal/wire"
)

// Wire framing of a transport message body (after the transport's 4-byte
// length prefix):
//
//	0x00  wireMagic
//	0x01  wireV1      — codec version
//	kind  uint8       — MessageKind
//	...   payload     — the kind's fixed field order (below)
//
// DecodeMessage refuses any other leading pair. A first byte other than 0x00
// was a bare encoding/gob frame until that generation was retired: a format
// revision bumps wireV1 upward and never reuses the first byte.
const (
	wireMagic = 0x00
	wireV1    = 0x01
)

// Minimum encoded sizes (bytes) of variable-count elements, used to bound
// slice pre-allocation by the input length before trusting a declared count.
const (
	_digestWire  = types.DigestSize
	_voteSigMin  = 5  // 4-byte voter + >=1-byte signature length
	_certMinWire = 24 // header round+source+counts+nanos+empty sig
	_txMinWire   = 17 // 8-byte ID + 8-byte submit nanos + >=1-byte payload length
)

// EncodeMessage serializes a message into a fresh buffer in the versioned
// wire format. It fails on a message whose payload pointer for its kind is
// nil (a caller bug).
//
//hammerlint:deterministic
func EncodeMessage(m *Message) ([]byte, error) {
	if err := checkPayload(m); err != nil {
		return nil, err
	}
	return AppendMessage(make([]byte, 0, m.EncodedSize()+16), m)
}

// checkPayload rejects a message of unknown kind or whose payload pointer for
// its kind is nil (EncodedSize and the payload encoders would dereference it).
func checkPayload(m *Message) error {
	ok := true
	switch m.Kind {
	case KindHeader:
		ok = m.Header != nil
	case KindVote:
		ok = m.Vote != nil
	case KindCertificate:
		ok = m.Cert != nil
	case KindCertRequest:
		ok = m.CertRequest != nil
	case KindCertResponse:
		ok = m.CertResponse != nil
	case KindRoundRequest:
		ok = m.RoundRequest != nil
	case KindSnapshotRequest:
		ok = m.SnapshotRequest != nil
	case KindSnapshotResponse:
		ok = m.SnapshotResponse != nil
	case KindRejoinRequest:
		ok = m.RejoinRequest != nil
	case KindRejoinResponse:
		ok = m.RejoinResponse != nil
	case KindCheckpointSig:
		ok = m.CheckpointSig != nil
	case KindCheckpointCert:
		ok = m.CheckpointCert != nil
	default:
		return fmt.Errorf("engine: encoding unknown message kind %d", m.Kind)
	}
	if !ok {
		return fmt.Errorf("engine: encoding %s: nil payload", m.Kind)
	}
	return nil
}

// AppendMessage appends the versioned wire encoding of m to buf — the
// transport uses it to build a frame in one allocation, length prefix
// included.
//
//hammerlint:deterministic
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
	if err := checkPayload(m); err != nil {
		return nil, err
	}
	buf = append(buf, wireMagic, wireV1, byte(m.Kind))
	switch m.Kind {
	case KindHeader:
		return AppendHeaderWire(buf, m.Header), nil
	case KindVote:
		return appendVote(buf, m.Vote), nil
	case KindCertificate:
		return AppendCertificateWire(buf, m.Cert), nil
	case KindCertRequest:
		buf = wire.AppendUvarint(buf, uint64(len(m.CertRequest.Digests)))
		for _, d := range m.CertRequest.Digests {
			buf = wire.AppendDigest(buf, d)
		}
		return buf, nil
	case KindCertResponse:
		return appendCertList(buf, m.CertResponse.Certs), nil
	case KindRoundRequest:
		return wire.AppendU64(buf, uint64(m.RoundRequest.FromRound)), nil
	case KindSnapshotRequest:
		r := m.SnapshotRequest
		buf = wire.AppendU64(buf, uint64(r.HaveRound))
		buf = wire.AppendU64(buf, uint64(r.Round))
		buf = wire.AppendU32(buf, r.Chunk)
		return buf, nil
	case KindSnapshotResponse:
		r := m.SnapshotResponse
		buf = wire.AppendU64(buf, uint64(r.Round))
		buf = wire.AppendU64(buf, r.CommitSeq)
		buf = wire.AppendDigest(buf, r.StateRoot)
		buf = wire.AppendDigest(buf, r.StateDigest)
		buf = wire.AppendU32(buf, r.Chunks)
		buf = wire.AppendU32(buf, r.Chunk)
		buf = wire.AppendBytes(buf, r.Data)
		buf = wire.AppendU32(buf, r.DataCRC)
		return buf, nil
	case KindRejoinRequest:
		return appendFrontier(buf, m.RejoinRequest.Frontier), nil
	case KindRejoinResponse:
		r := m.RejoinResponse
		buf = appendFrontier(buf, r.Frontier)
		buf = appendCertList(buf, r.Certs)
		buf = wire.AppendBool(buf, r.Offer != nil)
		if r.Offer != nil {
			buf = appendSnapshotMeta(buf, *r.Offer)
		}
		return buf, nil
	case KindCheckpointSig:
		return checkpoint.AppendShare(buf, m.CheckpointSig), nil
	case KindCheckpointCert:
		return checkpoint.AppendCertificate(buf, m.CheckpointCert), nil
	default:
		return nil, fmt.Errorf("engine: encoding unknown message kind %d", m.Kind)
	}
}

// DecodeMessage parses a transport frame body into a Message, refusing
// anything that does not start with the wireMagic, wireV1 pair. The payload
// pointer for the decoded kind is never nil. Decoded byte fields (signatures,
// payloads, snapshot chunks) alias data, which the TCP read loop allocates per
// frame, so recipients own them without a copy. Pre-verified marks never
// survive: every payload is freshly constructed.
func DecodeMessage(data []byte) (*Message, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("engine: %w: message frame too short", wire.ErrTruncated)
	}
	if data[0] != wireMagic || data[1] != wireV1 {
		return nil, fmt.Errorf("engine: unknown message framing 0x%02x 0x%02x", data[0], data[1])
	}
	msg := &Message{Kind: MessageKind(data[2])}
	r := wire.NewReader(data[3:])
	switch msg.Kind {
	case KindHeader:
		msg.Header = ReadHeaderWire(r)
	case KindVote:
		msg.Vote = readVote(r)
	case KindCertificate:
		msg.Cert = ReadCertificateWire(r)
	case KindCertRequest:
		req := &CertRequest{}
		n := r.Count(_digestWire)
		if n > 0 {
			req.Digests = make([]types.Digest, 0, n)
		}
		for i := 0; i < n; i++ {
			req.Digests = append(req.Digests, r.Digest())
		}
		msg.CertRequest = req
	case KindCertResponse:
		msg.CertResponse = &CertResponse{Certs: readCertList(r)}
	case KindRoundRequest:
		msg.RoundRequest = &RoundRequest{FromRound: types.Round(r.U64())}
	case KindSnapshotRequest:
		msg.SnapshotRequest = &SnapshotRequest{
			HaveRound: types.Round(r.U64()),
			Round:     types.Round(r.U64()),
			Chunk:     r.U32(),
		}
	case KindSnapshotResponse:
		msg.SnapshotResponse = &SnapshotResponse{
			Round:       types.Round(r.U64()),
			CommitSeq:   r.U64(),
			StateRoot:   r.Digest(),
			StateDigest: r.Digest(),
			Chunks:      r.U32(),
			Chunk:       r.U32(),
			Data:        r.Bytes(),
			DataCRC:     r.U32(),
		}
	case KindRejoinRequest:
		msg.RejoinRequest = &RejoinRequest{Frontier: readFrontier(r)}
	case KindRejoinResponse:
		resp := &RejoinResponse{Frontier: readFrontier(r), Certs: readCertList(r)}
		if r.Bool() {
			meta := readSnapshotMeta(r)
			resp.Offer = &meta
		}
		msg.RejoinResponse = resp
	case KindCheckpointSig:
		msg.CheckpointSig = checkpoint.ReadShare(r)
	case KindCheckpointCert:
		msg.CheckpointCert = checkpoint.ReadCertificate(r)
	default:
		return nil, fmt.Errorf("engine: decoding unknown message kind %d", data[2])
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("engine: decoding %s: %w", msg.Kind, err)
	}
	return msg, nil
}

// ---- payload codecs ----

// AppendHeaderWire appends h's wire form: the in-message header layout and,
// so the log shares it byte for byte, the body of a WAL proposal record
// (the storage package frames its records itself).
//
//hammerlint:deterministic
func AppendHeaderWire(b []byte, h *Header) []byte {
	b = wire.AppendU64(b, uint64(h.Round))
	b = wire.AppendU32(b, uint32(h.Source))
	b = wire.AppendUvarint(b, uint64(len(h.Edges)))
	for _, d := range h.Edges {
		b = wire.AppendDigest(b, d)
	}
	b = wire.AppendBool(b, h.Batch != nil)
	if h.Batch != nil {
		b = wire.AppendUvarint(b, uint64(len(h.Batch.Transactions)))
		for i := range h.Batch.Transactions {
			tx := &h.Batch.Transactions[i]
			b = wire.AppendU64(b, tx.ID)
			b = wire.AppendU64(b, uint64(tx.SubmitTimeNanos))
			b = wire.AppendBytes(b, tx.Payload)
		}
	}
	b = wire.AppendU64(b, uint64(h.CreatedNanos))
	b = wire.AppendBytes(b, h.Signature)
	return b
}

// ReadHeaderWire decodes AppendHeaderWire's form.
func ReadHeaderWire(r *wire.Reader) *Header {
	h := &Header{
		Round:  types.Round(r.U64()),
		Source: types.ValidatorID(r.U32()),
	}
	n := r.Count(_digestWire)
	if n > 0 {
		h.Edges = make([]types.Digest, 0, n)
	}
	for i := 0; i < n; i++ {
		h.Edges = append(h.Edges, r.Digest())
	}
	if r.Bool() {
		txs := r.Count(_txMinWire)
		batch := &types.Batch{}
		if txs > 0 {
			batch.Transactions = make([]types.Transaction, 0, txs)
		}
		for i := 0; i < txs; i++ {
			batch.Transactions = append(batch.Transactions, types.Transaction{
				ID:              r.U64(),
				SubmitTimeNanos: int64(r.U64()),
				Payload:         r.Bytes(),
			})
		}
		h.Batch = batch
	}
	h.CreatedNanos = int64(r.U64())
	h.Signature = crypto.Signature(r.Bytes())
	return h
}

func appendVote(b []byte, v *Vote) []byte {
	b = wire.AppendDigest(b, v.HeaderDigest)
	b = wire.AppendU64(b, uint64(v.Round))
	b = wire.AppendU32(b, uint32(v.Origin))
	b = wire.AppendU32(b, uint32(v.Voter))
	b = wire.AppendBytes(b, v.Signature)
	return b
}

func readVote(r *wire.Reader) *Vote {
	return &Vote{
		HeaderDigest: r.Digest(),
		Round:        types.Round(r.U64()),
		Origin:       types.ValidatorID(r.U32()),
		Voter:        types.ValidatorID(r.U32()),
		Signature:    crypto.Signature(r.Bytes()),
	}
}

// AppendCertificateWire appends c's wire form: the in-message certificate
// layout and the body of a WAL certificate record.
//
//hammerlint:deterministic
func AppendCertificateWire(b []byte, c *Certificate) []byte {
	b = AppendHeaderWire(b, &c.Header)
	b = wire.AppendUvarint(b, uint64(len(c.Votes)))
	for i := range c.Votes {
		b = wire.AppendU32(b, uint32(c.Votes[i].Voter))
		b = wire.AppendBytes(b, c.Votes[i].Signature)
	}
	return b
}

// ReadCertificateWire decodes AppendCertificateWire's form.
func ReadCertificateWire(r *wire.Reader) *Certificate {
	c := &Certificate{}
	h := ReadHeaderWire(r)
	if h != nil {
		c.Header = *h
	}
	n := r.Count(_voteSigMin)
	if n > 0 {
		c.Votes = make([]VoteSig, 0, n)
	}
	for i := 0; i < n; i++ {
		c.Votes = append(c.Votes, VoteSig{
			Voter:     types.ValidatorID(r.U32()),
			Signature: crypto.Signature(r.Bytes()),
		})
	}
	return c
}

func appendCertList(b []byte, certs []*Certificate) []byte {
	b = wire.AppendUvarint(b, uint64(len(certs)))
	for _, c := range certs {
		b = AppendCertificateWire(b, c)
	}
	return b
}

func readCertList(r *wire.Reader) []*Certificate {
	n := r.Count(_certMinWire)
	if n == 0 {
		return nil
	}
	certs := make([]*Certificate, 0, n)
	for i := 0; i < n; i++ {
		certs = append(certs, ReadCertificateWire(r))
	}
	return certs
}

func appendFrontier(b []byte, f Frontier) []byte {
	b = wire.AppendU64(b, uint64(f.HighestRound))
	b = wire.AppendU64(b, uint64(f.LastOrdered))
	b = wire.AppendU64(b, f.AppliedSeq)
	return b
}

func readFrontier(r *wire.Reader) Frontier {
	return Frontier{
		HighestRound: types.Round(r.U64()),
		LastOrdered:  types.Round(r.U64()),
		AppliedSeq:   r.U64(),
	}
}

func appendSnapshotMeta(b []byte, m SnapshotMeta) []byte {
	b = wire.AppendU64(b, uint64(m.Round))
	b = wire.AppendU64(b, m.CommitSeq)
	b = wire.AppendDigest(b, m.StateRoot)
	b = wire.AppendDigest(b, m.StateDigest)
	return b
}

func readSnapshotMeta(r *wire.Reader) SnapshotMeta {
	return SnapshotMeta{
		Round:       types.Round(r.U64()),
		CommitSeq:   r.U64(),
		StateRoot:   r.Digest(),
		StateDigest: r.Digest(),
	}
}
