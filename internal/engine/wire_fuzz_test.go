package engine

import (
	"bytes"
	"testing"
)

// FuzzWireCodecRoundTrip fuzzes the deterministic wire codec: for every
// message kind buildMessage can produce, the encode→decode composition must
// be faithful (assertWireFidelity is the oracle) and the encoding must be
// deterministic (equal messages encode to equal bytes). The first argument
// indexes wireKinds; a CertResponse's shape follows the last (see
// buildMessage), and the seeds cover all three.
func FuzzWireCodecRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint32(0), []byte("edge-material"), []byte("sig"), uint8(3))
	f.Add(uint8(2), uint64(7), uint32(3), []byte{}, []byte{}, uint8(0))
	f.Add(uint8(4), uint64(42), uint32(2), bytes.Repeat([]byte{0xAB}, 64), bytes.Repeat([]byte{1}, 64), uint8(7))
	f.Add(uint8(6), uint64(11), uint32(2), []byte("chunk-data"), []byte("z"), uint8(1))
	f.Add(uint8(3), uint64(3), uint32(1), []byte("offer"), []byte("w"), uint8(2))
	f.Add(uint8(8), uint64(19), uint32(0), []byte("ckpt"), []byte("share-sig"), uint8(4))
	f.Add(uint8(3), uint64(5), uint32(2), []byte("full"), []byte("v"), uint8(6))
	f.Add(uint8(3), uint64(6), uint32(3), []byte("by-round"), []byte("u"), uint8(0))
	f.Add(uint8(3), uint64(8), uint32(0), []byte{}, []byte{}, uint8(1))
	f.Add(uint8(7), uint64(23), uint32(1), []byte("share"), []byte("share-sig"), uint8(0))
	f.Fuzz(func(t *testing.T, kindSel uint8, round uint64, source uint32, blob, sig []byte, nSub uint8) {
		msg := buildMessage(kindSel, round, source, blob, sig, nSub)
		if msg == nil {
			t.Skip()
		}

		data, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("wire encode %s: %v", msg.Kind, err)
		}
		again, err := EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("wire encoding of %s is nondeterministic", msg.Kind)
		}
		got, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("wire decode %s: %v", msg.Kind, err)
		}
		assertWireFidelity(t, msg, got)

	})
}

// FuzzWireCodecCorrupt feeds hostile frames to the decoder: every prefix
// truncation and a fuzz-chosen bit flip of a valid encoding, plus raw fuzz
// bytes. The decoder must never panic, and — because every declared length
// and count is validated against the remaining input before allocation — it
// must stay cheap on lying-length inputs.
//
// The valid frames are a RoundRequest and a CertResponse of each shape (one
// certificate, three, none, with an offer); the raw input's length picks the
// one a run corrupts.
func FuzzWireCodecCorrupt(f *testing.F) {
	var frames [][]byte
	for _, m := range []*Message{
		buildMessage(4, 9, 1, []byte("payload"), []byte("sig"), 4),
		buildMessage(3, 9, 1, []byte("payload"), []byte("sig"), 0),
		buildMessage(3, 9, 1, []byte("payload"), []byte("sig"), 6),
		buildMessage(3, 9, 1, []byte("payload"), []byte("sig"), 1),
		buildMessage(3, 9, 1, []byte("payload"), []byte("sig"), 2),
	} {
		frame, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
	}
	f.Add(frames[0], uint16(0))
	f.Add([]byte{0x00, 0x01, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, uint16(1))
	f.Add([]byte{}, uint16(0))
	for _, frame := range frames[1:] {
		f.Add(frame, uint16(len(frame)/2))
	}
	f.Fuzz(func(t *testing.T, raw []byte, flip uint16) {
		valid := frames[len(raw)%len(frames)]
		// Raw bytes straight into the decoder.
		if msg, err := DecodeMessage(raw); err == nil && msg != nil {
			// Whatever decoded must re-encode without panicking (nil payloads
			// for the declared kind are rejected with an error, not a crash).
			_, _ = EncodeMessage(msg)
		}

		// A corrupted valid frame: one bit flip at a fuzz-chosen offset.
		if len(raw) > 0 {
			mutated := append([]byte(nil), valid...)
			mutated[int(flip)%len(mutated)] ^= 1 << (flip % 8)
			_, _ = DecodeMessage(mutated)
		}

		// Every truncation of a valid frame fails cleanly or decodes a
		// strict prefix — never panics.
		if len(valid) > 0 {
			_, _ = DecodeMessage(valid[:int(flip)%len(valid)])
		}
	})
}
