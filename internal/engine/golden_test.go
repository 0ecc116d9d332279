package engine

import (
	"encoding/hex"
	"testing"

	"hammerhead/internal/types"
)

// TestGoldenFrames pins the bytes of the message encoding (frame tag 00 01):
// a fixed header and a fixed certificate must encode to exactly these bytes,
// and the bytes must decode to a message that encodes back to them. The
// constants were recorded before the gob decode arms were deleted and did not
// move with them; a format revision moves them once, on purpose, together
// with the version tag.
func TestGoldenFrames(t *testing.T) {
	header := Header{
		Round:  7,
		Source: 2,
		Edges:  []types.Digest{types.HashBytes([]byte("edge-a")), types.HashBytes([]byte("edge-b"))},
		Batch: &types.Batch{Transactions: []types.Transaction{
			{ID: 0x0102030405060708, SubmitTimeNanos: 1_700_000_000_000_000_001, Payload: []byte("put k v")},
			{ID: 9},
		}},
		CreatedNanos: 1_700_000_000_123_456_789,
		Signature:    []byte("header-signature"),
	}
	cert := &Certificate{Header: header, Votes: []VoteSig{
		{Voter: 0, Signature: []byte("vote-0")},
		{Voter: 1, Signature: []byte("vote-1")},
		{Voter: 3, Signature: []byte("vote-3")},
	}}
	for _, tc := range []struct {
		msg    *Message
		golden string
	}{
		{&Message{Kind: KindHeader, Header: &header}, goldenHeaderFrame},
		{&Message{Kind: KindCertificate, Cert: cert}, goldenCertificateFrame},
	} {
		data, err := EncodeMessage(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != tc.golden {
			t.Fatalf("%s encoding moved:\n got %s\nwant %s", tc.msg.Kind, got, tc.golden)
		}
		decoded, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("golden %s frame rejected: %v", tc.msg.Kind, err)
		}
		assertWireFidelity(t, tc.msg, decoded)
		if again, err := EncodeMessage(decoded); err != nil || hex.EncodeToString(again) != tc.golden {
			t.Fatalf("decode(golden %s) does not re-encode to golden (err %v)", tc.msg.Kind, err)
		}
	}
}

const (
	goldenHeaderFrame      = "00010100000000000000070000000202682abdfcaf9f15838bcef5aee1c57f6a5206eecc128d9ef6ed98fdc3bcc1ca43713c754e1586236745eb67b642fb0c62492a2e0f22e56cf545efdef0998ec2320102010203040506070817979cfe362a000107707574206b2076000000000000000900000000000000000017979cfe3d85cd15106865616465722d7369676e6174757265"
	goldenCertificateFrame = "00010300000000000000070000000202682abdfcaf9f15838bcef5aee1c57f6a5206eecc128d9ef6ed98fdc3bcc1ca43713c754e1586236745eb67b642fb0c62492a2e0f22e56cf545efdef0998ec2320102010203040506070817979cfe362a000107707574206b2076000000000000000900000000000000000017979cfe3d85cd15106865616465722d7369676e6174757265030000000006766f74652d300000000106766f74652d310000000306766f74652d33"
)
