package engine

import (
	"bytes"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// wireKinds lists every message kind on the wire, in kind-byte order.
var wireKinds = []MessageKind{
	KindHeader, KindVote, KindCertificate, KindCertResponse,
	KindRoundRequest, KindSnapshotRequest, KindSnapshotResponse,
	KindCheckpointSig, KindCheckpointCert,
}

// assertWireFidelity fails the test unless got is a faithful decode of msg:
// same kind, same content digests. Shared by the round-trip tests and fuzz
// targets.
func assertWireFidelity(t *testing.T, msg, got *Message) {
	t.Helper()
	if got.Kind != msg.Kind {
		t.Fatalf("kind %s decoded as %s", msg.Kind, got.Kind)
	}
	if got.EncodedSize() != msg.EncodedSize() {
		t.Fatalf("EncodedSize changed across the wire: %d vs %d", msg.EncodedSize(), got.EncodedSize())
	}
	switch msg.Kind {
	case KindHeader:
		if got.Header.Digest() != msg.Header.Digest() {
			t.Fatal("header digest changed across the wire")
		}
	case KindVote:
		v, w := got.Vote, msg.Vote
		if v.HeaderDigest != w.HeaderDigest || v.Round != w.Round ||
			v.Origin != w.Origin || v.Voter != w.Voter ||
			!bytes.Equal(v.Signature, w.Signature) {
			t.Fatal("vote fields changed across the wire")
		}
	case KindCertificate:
		if got.Cert.Digest() != msg.Cert.Digest() {
			t.Fatal("certificate digest changed across the wire")
		}
		if len(got.Cert.Votes) != len(msg.Cert.Votes) {
			t.Fatal("vote count changed across the wire")
		}
	case KindCertResponse:
		r, w := got.CertResponse, msg.CertResponse
		if r.FromRound != w.FromRound {
			t.Fatal("the pull a response answers changed across the wire")
		}
		if (r.Offer == nil) != (w.Offer == nil) {
			t.Fatal("checkpoint offer presence changed across the wire")
		}
		if w.Offer != nil && *r.Offer != *w.Offer {
			t.Fatal("checkpoint offer changed across the wire")
		}
		if len(r.Certs) != len(w.Certs) {
			t.Fatal("certificate count changed across the wire")
		}
		for i := range r.Certs {
			if r.Certs[i].Digest() != w.Certs[i].Digest() {
				t.Fatalf("certificate %d digest changed across the wire", i)
			}
		}
	case KindRoundRequest:
		if got.RoundRequest.FromRound != msg.RoundRequest.FromRound {
			t.Fatal("round changed across the wire")
		}
	case KindSnapshotResponse:
		r, w := got.SnapshotResponse, msg.SnapshotResponse
		if r.Round != w.Round || r.Chunk != w.Chunk || r.DataCRC != w.DataCRC ||
			!bytes.Equal(r.Data, w.Data) {
			t.Fatal("snapshot response fields changed across the wire")
		}
	case KindCheckpointSig:
		s, w := got.CheckpointSig, msg.CheckpointSig
		if s.Meta != w.Meta || s.Validator != w.Validator || !bytes.Equal(s.Signature, w.Signature) {
			t.Fatal("checkpoint share changed across the wire")
		}
	case KindCheckpointCert:
		if !got.CheckpointCert.Equal(msg.CheckpointCert) {
			t.Fatal("checkpoint certificate changed across the wire")
		}
	}
}

// buildMessage derives a structurally valid message of the kind
// wireKinds[kindSel] selects (mod its length) from fuzz material.
func buildMessage(kindSel uint8, round uint64, source uint32, blob, sig []byte, nSub uint8) *Message {
	kind := wireKinds[int(kindSel)%len(wireKinds)]
	mkHeader := func() *Header {
		edges := make([]types.Digest, int(nSub)%4)
		for i := range edges {
			edges[i] = types.HashBytes(append(blob, byte(i)))
		}
		var batch *types.Batch
		if len(blob) > 0 {
			batch = &types.Batch{Transactions: []types.Transaction{
				{ID: round ^ 0xdead, Payload: blob, SubmitTimeNanos: int64(round)},
			}}
		}
		return &Header{
			Round:        types.Round(round),
			Source:       types.ValidatorID(source),
			Edges:        edges,
			Batch:        batch,
			CreatedNanos: int64(round),
			Signature:    crypto.Signature(sig),
		}
	}
	switch kind {
	case KindHeader:
		return &Message{Kind: kind, Header: mkHeader()}
	case KindVote:
		return &Message{Kind: kind, Vote: &Vote{
			HeaderDigest: types.HashBytes(blob),
			Round:        types.Round(round),
			Origin:       types.ValidatorID(source),
			Voter:        types.ValidatorID(source + 1),
			Signature:    crypto.Signature(sig),
		}}
	case KindCertificate:
		c := &Certificate{Header: *mkHeader()}
		for i := uint8(0); i < nSub%5; i++ {
			c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(i), Signature: crypto.Signature(sig)})
		}
		return &Message{Kind: kind, Cert: c}
	case KindCertResponse:
		// nSub%3 picks the shape: a reply with certificates, one with none,
		// one with certificates and a checkpoint offer; nSub/3 how many
		// certificates.
		shape := nSub % 3
		resp := &CertResponse{FromRound: types.Round(round)}
		if shape == 2 {
			resp.Offer = &SnapshotMeta{
				Round:       types.Round(round >> 1),
				CommitSeq:   round ^ 0xc0ffee,
				StateRoot:   types.HashBytes(blob),
				StateDigest: types.HashBytes(sig),
			}
		}
		for i := uint8(0); shape != 1 && i < nSub/3%3+1; i++ {
			c := &Certificate{Header: *mkHeader()}
			c.Header.Round = types.Round(round + uint64(i))
			resp.Certs = append(resp.Certs, c)
		}
		return &Message{Kind: kind, CertResponse: resp}
	case KindRoundRequest:
		return &Message{Kind: kind, RoundRequest: &RoundRequest{FromRound: types.Round(round)}}
	case KindSnapshotRequest:
		return &Message{Kind: kind, SnapshotRequest: &SnapshotRequest{
			HaveRound: types.Round(round),
			Round:     types.Round(round >> 1),
			Chunk:     source,
		}}
	case KindSnapshotResponse:
		return &Message{Kind: kind, SnapshotResponse: &SnapshotResponse{
			Round:       types.Round(round),
			CommitSeq:   round ^ 0xbeef,
			StateRoot:   types.HashBytes(blob),
			StateDigest: types.HashBytes(sig),
			Chunks:      uint32(nSub%7) + 1,
			Chunk:       uint32(nSub % 7),
			Data:        blob,
			DataCRC:     source,
		}}
	case KindCheckpointSig:
		return &Message{Kind: kind, CheckpointSig: &checkpoint.Share{
			Meta:      ckptMetaFrom(round, blob, sig),
			Validator: types.ValidatorID(source),
			Signature: crypto.Signature(sig),
		}}
	case KindCheckpointCert:
		cert := &checkpoint.Certificate{Meta: ckptMetaFrom(round, blob, sig)}
		for i := uint8(0); i < nSub%5; i++ {
			cert.Sigs = append(cert.Sigs, checkpoint.Sig{
				Validator: types.ValidatorID(i),
				Signature: crypto.Signature(sig),
			})
		}
		return &Message{Kind: kind, CheckpointCert: cert}
	default:
		return nil
	}
}

func ckptMetaFrom(round uint64, blob, sig []byte) checkpoint.Meta {
	return checkpoint.Meta{
		Round:       types.Round(round),
		CommitSeq:   round ^ 0xabcd,
		StateRoot:   types.HashBytes(blob),
		StateDigest: types.HashBytes(sig),
		SchedDigest: checkpoint.SchedDigestOf(blob),
	}
}
