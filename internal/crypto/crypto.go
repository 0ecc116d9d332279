// Package crypto provides the signature substrate used to authenticate
// protocol messages (headers, votes, certificates).
//
// Two schemes are provided behind one interface:
//
//   - Ed25519: real signatures (crypto/ed25519), used by the TCP node and by
//     integration tests that exercise the authenticated path.
//   - Insecure: a keyed-hash stand-in with the same shape but no security,
//     used by large-scale simulations. The paper's evaluation is crash-only
//     (evaluating under Byzantine faults is explicitly left open, §5 C3), so
//     simulation correctness does not depend on unforgeability; skipping
//     public-key operations is what makes 100-validator, multi-minute
//     simulated deployments run in seconds.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Scheme is a detached-signature scheme over byte strings.
type Scheme interface {
	// Name identifies the scheme in configs and handshakes.
	Name() string
	// GenerateKey derives a deterministic key pair from a 32-byte seed.
	GenerateKey(seed [32]byte) (PrivateKey, PublicKey, error)
	// Sign produces a signature over msg.
	Sign(priv PrivateKey, msg []byte) (Signature, error)
	// Verify reports whether sig is valid for msg under pub.
	Verify(pub PublicKey, msg []byte, sig Signature) bool
}

// PrivateKey is an opaque signing key.
type PrivateKey []byte

// PublicKey is an opaque verification key.
type PublicKey []byte

// Signature is a detached signature.
type Signature []byte

// ErrBadSeed is returned when a seed of the wrong size is supplied.
var ErrBadSeed = errors.New("crypto: seed must be 32 bytes")

// SeedForValidator derives a per-validator deterministic seed from a cluster
// seed and validator index; used by tests, simulations and keygen tooling so
// committees are reproducible.
//
//hammerlint:deterministic
func SeedForValidator(clusterSeed [32]byte, index uint32) [32]byte {
	h := sha256.New()
	h.Write(clusterSeed[:])
	h.Write([]byte{byte(index), byte(index >> 8), byte(index >> 16), byte(index >> 24)})
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ---- Ed25519 ----

// Ed25519 is the production signature scheme.
type Ed25519 struct{}

var _ Scheme = Ed25519{}

// Name implements Scheme.
func (Ed25519) Name() string { return "ed25519" }

// GenerateKey implements Scheme.
func (Ed25519) GenerateKey(seed [32]byte) (PrivateKey, PublicKey, error) {
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)
	return PrivateKey(priv), PublicKey(pub), nil
}

// Sign implements Scheme.
func (Ed25519) Sign(priv PrivateKey, msg []byte) (Signature, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("crypto: ed25519 private key has size %d, want %d", len(priv), ed25519.PrivateKeySize)
	}
	return Signature(ed25519.Sign(ed25519.PrivateKey(priv), msg)), nil
}

// Verify implements Scheme.
func (Ed25519) Verify(pub PublicKey, msg []byte, sig Signature) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// ---- Insecure ----

// Insecure is a keyed-hash scheme for crash-only simulations. A signature is
// sha256(priv || msg)[:16] and the public key embeds the private key, so
// verification recomputes the tag. It provides integrity against accidental
// corruption only — NOT against an adversary.
type Insecure struct{}

var _ Scheme = Insecure{}

// Name implements Scheme.
func (Insecure) Name() string { return "insecure" }

// GenerateKey implements Scheme.
func (Insecure) GenerateKey(seed [32]byte) (PrivateKey, PublicKey, error) {
	key := sha256.Sum256(seed[:])
	return PrivateKey(key[:]), PublicKey(key[:]), nil
}

// Sign implements Scheme.
func (Insecure) Sign(priv PrivateKey, msg []byte) (Signature, error) {
	if len(priv) != 32 {
		return nil, fmt.Errorf("crypto: insecure private key has size %d, want 32", len(priv))
	}
	h := sha256.New()
	h.Write(priv)
	h.Write(msg)
	return Signature(h.Sum(nil)[:16]), nil
}

// Verify implements Scheme.
func (Insecure) Verify(pub PublicKey, msg []byte, sig Signature) bool {
	if len(pub) != 32 || len(sig) != 16 {
		return false
	}
	h := sha256.New()
	h.Write(pub)
	h.Write(msg)
	want := h.Sum(nil)[:16]
	// Constant-time comparison is irrelevant here; this scheme is insecure
	// by construction.
	for i := range want {
		if want[i] != sig[i] {
			return false
		}
	}
	return true
}

// SchemeByName resolves a scheme from its configured name.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "ed25519":
		return Ed25519{}, nil
	case "insecure":
		return Insecure{}, nil
	default:
		return nil, fmt.Errorf("crypto: unknown scheme %q", name)
	}
}

// KeyPair bundles a validator's keys with the scheme that produced them.
type KeyPair struct {
	Scheme  Scheme
	Private PrivateKey
	Public  PublicKey
}

// NewKeyPair derives a key pair for one validator.
func NewKeyPair(scheme Scheme, clusterSeed [32]byte, index uint32) (KeyPair, error) {
	priv, pub, err := scheme.GenerateKey(SeedForValidator(clusterSeed, index))
	if err != nil {
		return KeyPair{}, fmt.Errorf("crypto: generating key for validator %d: %w", index, err)
	}
	return KeyPair{Scheme: scheme, Private: priv, Public: pub}, nil
}

// CommitteeKeys derives the key pairs of an n-validator committee from one
// cluster seed, element i belonging to validator i, and lists their public
// keys in the same order.
func CommitteeKeys(scheme Scheme, clusterSeed [32]byte, n int) ([]KeyPair, []PublicKey, error) {
	pairs := make([]KeyPair, n)
	pubs := make([]PublicKey, n)
	for i := range pairs {
		kp, err := NewKeyPair(scheme, clusterSeed, uint32(i))
		if err != nil {
			return nil, nil, err
		}
		pairs[i], pubs[i] = kp, kp.Public
	}
	return pairs, pubs, nil
}

// Sign signs msg with the pair's private key.
func (k KeyPair) Sign(msg []byte) (Signature, error) {
	return k.Scheme.Sign(k.Private, msg)
}
