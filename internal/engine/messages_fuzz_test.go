package engine

import (
	"bytes"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// assertWireFidelity fails the test unless got is a faithful decode of msg:
// same kind, same content digests, and the unexported sig-verified marks
// cleared. Shared by the round-trip tests and fuzz targets.
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
		if got.Header.SigVerified() {
			t.Fatal("sig-verified mark must not survive the wire")
		}
	case KindVote:
		v, w := got.Vote, msg.Vote
		if v.HeaderDigest != w.HeaderDigest || v.Round != w.Round ||
			v.Origin != w.Origin || v.Voter != w.Voter ||
			!bytes.Equal(v.Signature, w.Signature) {
			t.Fatal("vote fields changed across the wire")
		}
		if got.Vote.SigVerified() {
			t.Fatal("sig-verified mark must not survive the wire")
		}
	case KindCertificate:
		if got.Cert.Digest() != msg.Cert.Digest() {
			t.Fatal("certificate digest changed across the wire")
		}
		if len(got.Cert.Votes) != len(msg.Cert.Votes) {
			t.Fatal("vote count changed across the wire")
		}
		if got.Cert.SigVerified() {
			t.Fatal("sig-verified mark must not survive the wire")
		}
	case KindCertRequest:
		if len(got.CertRequest.Digests) != len(msg.CertRequest.Digests) {
			t.Fatal("digest count changed across the wire")
		}
	case KindCertResponse:
		if len(got.CertResponse.Certs) != len(msg.CertResponse.Certs) {
			t.Fatal("certificate count changed across the wire")
		}
		for i := range got.CertResponse.Certs {
			if got.CertResponse.Certs[i].Digest() != msg.CertResponse.Certs[i].Digest() {
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
	case KindRejoinRequest:
		if got.RejoinRequest.Frontier != msg.RejoinRequest.Frontier {
			t.Fatal("rejoin frontier changed across the wire")
		}
	case KindRejoinResponse:
		if got.RejoinResponse.Frontier != msg.RejoinResponse.Frontier {
			t.Fatal("rejoin frontier changed across the wire")
		}
		if (got.RejoinResponse.Offer == nil) != (msg.RejoinResponse.Offer == nil) {
			t.Fatal("checkpoint offer presence changed across the wire")
		}
		if msg.RejoinResponse.Offer != nil && *got.RejoinResponse.Offer != *msg.RejoinResponse.Offer {
			t.Fatal("checkpoint offer changed across the wire")
		}
		if len(got.RejoinResponse.Certs) != len(msg.RejoinResponse.Certs) {
			t.Fatal("certificate count changed across the wire")
		}
		for i := range got.RejoinResponse.Certs {
			if got.RejoinResponse.Certs[i].Digest() != msg.RejoinResponse.Certs[i].Digest() {
				t.Fatalf("certificate %d digest changed across the wire", i)
			}
			if got.RejoinResponse.Certs[i].SigVerified() {
				t.Fatal("sig-verified mark must not survive the wire")
			}
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

// buildMessage derives a structurally valid message of the selected kind
// from fuzz material. Marks are set before encoding to prove the codec
// strips them.
func buildMessage(kindSel uint8, round uint64, source uint32, blob, sig []byte, nSub uint8) *Message {
	kind := MessageKind(kindSel%12 + 1)
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
		h := &Header{
			Round:        types.Round(round),
			Source:       types.ValidatorID(source),
			Edges:        edges,
			Batch:        batch,
			CreatedNanos: int64(round),
			Signature:    crypto.Signature(sig),
		}
		h.MarkSigVerified()
		return h
	}
	switch kind {
	case KindHeader:
		return &Message{Kind: kind, Header: mkHeader()}
	case KindVote:
		v := &Vote{
			HeaderDigest: types.HashBytes(blob),
			Round:        types.Round(round),
			Origin:       types.ValidatorID(source),
			Voter:        types.ValidatorID(source + 1),
			Signature:    crypto.Signature(sig),
		}
		v.MarkSigVerified()
		return &Message{Kind: kind, Vote: v}
	case KindCertificate:
		c := &Certificate{Header: *mkHeader()}
		for i := uint8(0); i < nSub%5; i++ {
			c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(i), Signature: crypto.Signature(sig)})
		}
		c.MarkSigVerified()
		return &Message{Kind: kind, Cert: c}
	case KindCertRequest:
		digests := make([]types.Digest, int(nSub)%8)
		for i := range digests {
			digests[i] = types.HashBytes(append(sig, byte(i)))
		}
		return &Message{Kind: kind, CertRequest: &CertRequest{Digests: digests}}
	case KindCertResponse:
		resp := &CertResponse{}
		for i := uint8(0); i < nSub%3+1; i++ {
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
	case KindRejoinRequest:
		return &Message{Kind: kind, RejoinRequest: &RejoinRequest{Frontier: Frontier{
			HighestRound: types.Round(round),
			LastOrdered:  types.Round(round >> 2),
			AppliedSeq:   round ^ 0xfeed,
		}}}
	case KindRejoinResponse:
		resp := &RejoinResponse{Frontier: Frontier{
			HighestRound: types.Round(round),
			LastOrdered:  types.Round(round >> 2),
			AppliedSeq:   uint64(source),
		}}
		if nSub%2 == 1 {
			resp.Offer = &SnapshotMeta{
				Round:       types.Round(round >> 1),
				CommitSeq:   round ^ 0xc0ffee,
				StateRoot:   types.HashBytes(blob),
				StateDigest: types.HashBytes(sig),
			}
		}
		for i := uint8(0); i < nSub%3; i++ {
			c := &Certificate{Header: *mkHeader()}
			c.Header.Round = types.Round(round + uint64(i))
			resp.Certs = append(resp.Certs, c)
		}
		return &Message{Kind: kind, RejoinResponse: resp}
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
