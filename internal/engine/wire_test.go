package engine

import (
	"strings"
	"testing"
)

// TestWireCodecAllKindsRoundTrip drives one representative message of every
// kind through the wire codec and checks fidelity with the same oracle the
// fuzz targets use.
func TestWireCodecAllKindsRoundTrip(t *testing.T) {
	for kindSel := uint8(0); kindSel < 12; kindSel++ {
		msg := buildMessage(kindSel, 42, 2, []byte("blob-material"), []byte("signature"), 5)
		if msg == nil {
			t.Fatalf("buildMessage(%d) returned nil", kindSel)
		}
		data, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %s: %v", msg.Kind, err)
		}
		got, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("decode %s: %v", msg.Kind, err)
		}
		assertWireFidelity(t, msg, got)
	}
}

// TestEncodeMessageRejectsNilPayload: a Message whose payload pointer for its
// kind is nil is a caller bug, not an encodable value.
func TestEncodeMessageRejectsNilPayload(t *testing.T) {
	for kind := KindHeader; kind <= KindCheckpointCert; kind++ {
		if _, err := EncodeMessage(&Message{Kind: kind}); err == nil {
			t.Fatalf("nil %s payload encoded cleanly", kind)
		}
	}
}

func TestDecodeMessageRejectsBadFraming(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty frame decoded cleanly")
	}
	if _, err := DecodeMessage([]byte{0x00, 0x7F, 0x01}); err == nil {
		t.Fatal("unknown codec version decoded cleanly")
	}
	// A first byte other than the magic is a framing error: no decoder
	// looks at the rest.
	if _, err := DecodeMessage([]byte{0x2C, 0x01, 0x05, 0x00}); err == nil || !strings.Contains(err.Error(), "unknown message framing") {
		t.Fatalf("frame without the magic byte: err = %v, want a framing error", err)
	}
	if _, err := DecodeMessage([]byte{0x00, 0x01, 0xEE}); err == nil {
		t.Fatal("unknown message kind decoded cleanly")
	}
	// Trailing garbage after a well-formed payload must be rejected: a
	// decoded frame accounts for every byte.
	data, err := EncodeMessage(buildMessage(5, 1, 0, []byte("x"), []byte("y"), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(data, 0xAB)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}
