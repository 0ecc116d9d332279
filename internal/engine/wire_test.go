package engine

import (
	"slices"
	"strings"
	"testing"
)

// TestWireCodecAllKindsRoundTrip drives one representative message of every
// kind through the wire codec and checks fidelity with the same oracle the
// fuzz targets use.
func TestWireCodecAllKindsRoundTrip(t *testing.T) {
	var msgs []*Message
	for kindSel := range wireKinds {
		msgs = append(msgs, buildMessage(uint8(kindSel), 42, 2, []byte("blob-material"), []byte("signature"), 5))
	}
	// A CertResponse of every shape: with certificates, empty, with an offer.
	for nSub := uint8(0); nSub < 3; nSub++ {
		msgs = append(msgs, buildMessage(3, 42, 2, []byte("blob-material"), []byte("signature"), nSub))
	}
	for i, msg := range msgs {
		if msg == nil {
			t.Fatalf("message %d: buildMessage returned nil", i)
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
	for _, kind := range wireKinds {
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
	data, err := EncodeMessage(buildMessage(4, 1, 0, []byte("x"), []byte("y"), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(data, 0xAB)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

// TestRetiredKindsDecodeAsErrors: kind byte 4 carried the pull of
// certificates by digest, and bytes 9 and 10 the crash-rejoin handshake's own
// request and reply, before each became a round pull. A frame with any of
// them is an error whatever payload follows — a retired request's digests or
// frontier, or any live kind's — never another kind's message.
func TestRetiredKindsDecodeAsErrors(t *testing.T) {
	payloads := [][]byte{
		append([]byte{1}, make([]byte, 32)...), // one digest, as the digest pull listed them
		make([]byte, 24),                       // the retired rejoin request's frontier
	}
	for kindSel := range wireKinds {
		frame, err := EncodeMessage(buildMessage(uint8(kindSel), 42, 2, []byte("blob"), []byte("sig"), 7))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, frame[3:])
	}
	for _, retired := range []MessageKind{4, 9, 10} {
		if slices.Contains(wireKinds, retired) {
			t.Fatalf("retired kind byte %d is in use", retired)
		}
		for _, p := range payloads {
			frame := append([]byte{wireMagic, wireV1, byte(retired)}, p...)
			if msg, err := DecodeMessage(frame); err == nil {
				t.Fatalf("a frame of retired kind byte %d decoded as %s", retired, msg.Kind)
			}
		}
	}
}
