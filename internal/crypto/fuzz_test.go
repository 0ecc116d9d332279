package crypto

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzEd25519SignVerify checks the sign/verify contract over arbitrary seeds
// and messages: a fresh signature must verify, and any single-byte
// perturbation of the signature or the message must not.
func FuzzEd25519SignVerify(f *testing.F) {
	f.Add([]byte("seed"), []byte("anchor round 42"), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(63))
	f.Add([]byte{0xFF}, bytes.Repeat([]byte{0xAA}, 200), uint8(17))
	f.Fuzz(func(t *testing.T, seedBytes, msg []byte, flip uint8) {
		s := Ed25519{}
		seed := sha256.Sum256(seedBytes)
		priv, pub, err := s.GenerateKey(seed)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		sig, err := s.Sign(priv, msg)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if !s.Verify(pub, msg, sig) {
			t.Fatal("fresh signature must verify")
		}
		// Perturbed signature must fail.
		badSig := append(Signature(nil), sig...)
		badSig[int(flip)%len(badSig)] ^= 0x01
		if s.Verify(pub, msg, badSig) {
			t.Fatal("perturbed signature must not verify")
		}
		// Perturbed message must fail.
		badMsg := append(append([]byte(nil), msg...), 0x01)
		if s.Verify(pub, badMsg, sig) {
			t.Fatal("signature over extended message must not verify")
		}
		// Truncated signature must be rejected, not panic.
		if s.Verify(pub, msg, sig[:len(sig)-1]) {
			t.Fatal("truncated signature must not verify")
		}
	})
}
