package client

import (
	"sync"
	"sync/atomic"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// countingScheme counts the public-key operations a Verifier performs.
type countingScheme struct {
	crypto.Scheme
	verifies *atomic.Int64
}

func (s countingScheme) Verify(pub crypto.PublicKey, msg []byte, sig crypto.Signature) bool {
	s.verifies.Add(1)
	return s.Scheme.Verify(pub, msg, sig)
}

// certFixture signs checkpoint certificates for a committee of four.
type certFixture struct {
	keys     []crypto.KeyPair
	verifier *Verifier
	verifies *atomic.Int64
}

func newCertFixture(t *testing.T) *certFixture {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	scheme := crypto.Ed25519{}
	keys := make([]crypto.KeyPair, 4)
	pubs := make([]crypto.PublicKey, 4)
	for i := range keys {
		kp, err := crypto.NewKeyPair(scheme, [32]byte{0x31}, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i], pubs[i] = kp, kp.Public
	}
	f := &certFixture{keys: keys, verifies: new(atomic.Int64)}
	f.verifier = &Verifier{Committee: committee, PublicKeys: pubs, Scheme: countingScheme{scheme, f.verifies}}
	return f
}

// cert is a genuine certificate over the tuple at seq, signed by signers.
func (f *certFixture) cert(t *testing.T, seq uint64, signers ...types.ValidatorID) *checkpoint.Certificate {
	t.Helper()
	meta := checkpoint.Meta{
		Round:       types.Round(2 * seq),
		CommitSeq:   seq,
		StateRoot:   types.HashBytes([]byte("root"), []byte{byte(seq)}),
		StateDigest: types.HashBytes([]byte("state"), []byte{byte(seq)}),
	}
	c := &checkpoint.Certificate{Meta: meta}
	for _, id := range signers {
		sh, err := checkpoint.Sign(meta, id, f.keys[id])
		if err != nil {
			t.Fatal(err)
		}
		c.Sigs = append(c.Sigs, checkpoint.Sig{Validator: id, Signature: sh.Signature})
	}
	return c
}

// verify runs VerifyCert and reports the public-key operations it took and
// its error.
func (f *certFixture) verify(c *checkpoint.Certificate) (int64, error) {
	before := f.verifies.Load()
	err := f.verifier.VerifyCert(c)
	return f.verifies.Load() - before, err
}

// TestVerifierChecksEachCertificateOnce: a certificate identical to one that
// verified is accepted without a public-key operation; one that differs from
// a cached certificate in a single signature byte, or only in its signers, is
// verified, and the forged one refused.
func TestVerifierChecksEachCertificateOnce(t *testing.T) {
	f := newCertFixture(t)
	good := f.cert(t, 1, 0, 1, 2)
	if n, err := f.verify(good); err != nil || n != 3 {
		t.Fatalf("first check: err=%v after %d verifications, want nil after 3", err, n)
	}
	// The same certificate as a fresh decode delivers it: accepted, unchecked.
	if n, err := f.verify(f.cert(t, 1, 0, 1, 2)); err != nil || n != 0 {
		t.Fatalf("identical certificate: err=%v after %d verifications, want nil after 0", err, n)
	}

	// Same Meta and signers, one signature byte flipped: verified and refused.
	forged := f.cert(t, 1, 0, 1, 2)
	forged.Sigs[1].Signature[5] ^= 0x01
	if n, err := f.verify(forged); err == nil || n == 0 {
		t.Fatalf("certificate one byte off a cached one: err=%v after %d verifications, want refused after a check", err, n)
	}
	// The caller changing the certificate it had verified does not change
	// what the Verifier remembers.
	good.Sigs[0].Signature[0] ^= 0x01
	if err := f.verifier.VerifyCert(good); err == nil {
		t.Fatal("a certificate altered after it verified must be verified again and refused")
	}

	// Same Meta, other signers: verified (and fine).
	if n, err := f.verify(f.cert(t, 1, 1, 2, 3)); err != nil || n != 3 {
		t.Fatalf("other quorum of the same tuple: err=%v after %d verifications, want nil after 3", err, n)
	}
	// A failing certificate is never remembered.
	if n, err := f.verify(forged); err == nil || n == 0 {
		t.Fatalf("refused certificate re-sent: err=%v after %d verifications, want refused after a check", err, n)
	}
}

// TestVerifierRemembersTheLastFew: the cache holds the last recentCerts
// certificates that verified and forgets older ones, and is safe for the
// concurrent reads a load generator makes.
func TestVerifierRemembersTheLastFew(t *testing.T) {
	f := newCertFixture(t)
	certs := make([]*checkpoint.Certificate, recentCerts+1)
	for i := range certs {
		certs[i] = f.cert(t, uint64(i+1), 0, 1, 2)
		if err := f.verifier.VerifyCert(certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := f.verify(certs[0]); err != nil || n != 3 {
		t.Fatalf("evicted certificate: err=%v after %d verifications, want nil after 3", err, n)
	}
	before := f.verifies.Load()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range certs[2:] {
				if err := f.verifier.VerifyCert(c); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := f.verifies.Load() - before; n != 0 {
		t.Fatalf("re-reading %d remembered certificates took %d verifications, want 0", len(certs[2:]), n)
	}
}
