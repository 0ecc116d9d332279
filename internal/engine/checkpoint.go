package engine

import (
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// Checkpoint certification: after each local execution checkpoint the runtime
// calls OnLocalCheckpoint with the checkpoint tuple. The engine signs it,
// broadcasts the signature share (KindCheckpointSig), and accumulates its own
// and peers' shares; the first 2f+1-stake quorum on one tuple assembles a
// checkpoint.Certificate, which is attached to the execution layer's matching
// checkpoint and broadcast (KindCheckpointCert) so lagging peers — and peers
// whose share gossip was partitioned — adopt the certificate directly.
// Certificates are delivered in strictly ascending commit-seq order, exactly
// once each.
//
// All of this is inert unless the execution layer certifies checkpoints
// (Execution.CheckpointCerts).

// OnLocalCheckpoint signs the local checkpoint tuple, broadcasts the share,
// and feeds it to the local accumulator (which may complete a quorum if peer
// shares arrived first). Call from the engine goroutine/task loop only.
func (e *Engine) OnLocalCheckpoint(meta checkpoint.Meta) *Output {
	out := &Output{}
	if e.ckptAcc == nil {
		return out
	}
	sh, err := checkpoint.Sign(meta, e.self, e.keys)
	if err != nil {
		e.stats.InvalidMessages++
		return out
	}
	out.broadcast(&Message{Kind: KindCheckpointSig, CheckpointSig: &sh})
	e.accumulateShare(sh, out)
	return out
}

// onCheckpointSig handles a peer's signature share.
func (e *Engine) onCheckpointSig(from types.ValidatorID, sh *checkpoint.Share, out *Output) {
	if e.ckptAcc == nil || sh == nil {
		return
	}
	// A share only counts toward the quorum as its sender's own signature:
	// accepting relayed shares would let one peer stuff another's slot.
	if sh.Validator != from {
		e.stats.InvalidMessages++
		return
	}
	if e.config.VerifySignatures {
		if int(sh.Validator) >= len(e.pubKeys) ||
			!checkpoint.VerifyShare(*sh, e.keys.Scheme, e.pubKeys[sh.Validator]) {
			e.stats.InvalidMessages++
			return
		}
	}
	e.stats.CheckpointSigs++
	e.accumulateShare(*sh, out)
}

// accumulateShare feeds one signature-verified share to the accumulator and,
// when it completes a quorum, delivers and re-broadcasts the certificate.
func (e *Engine) accumulateShare(sh checkpoint.Share, out *Output) {
	cert := e.ckptAcc.Add(sh)
	if cert == nil {
		return
	}
	e.stats.CheckpointCertsFormed++
	if e.deliverCheckpointCert(cert) {
		out.broadcast(&Message{Kind: KindCheckpointCert, CheckpointCert: cert})
	}
}

// onPeerCheckpointCert adopts a certificate assembled by a peer — the catch-up
// path for validators whose own share gossip fell short of a quorum.
func (e *Engine) onPeerCheckpointCert(cert *checkpoint.Certificate) {
	if e.ckptAcc == nil || cert == nil {
		return
	}
	if cert.Meta.CommitSeq <= e.ckptDelivered {
		return // already certified locally
	}
	if e.config.VerifySignatures {
		if cert.Verify(e.committee, e.pubKeys, e.keys.Scheme) != nil {
			e.stats.InvalidMessages++
			return
		}
	} else {
		// Even without signature checking, enforce the structural rules:
		// strictly ascending known signers carrying quorum stake.
		pubs := e.pubKeys
		if len(pubs) < e.committee.Size() {
			pubs = make([]crypto.PublicKey, e.committee.Size())
		}
		if cert.Verify(e.committee, pubs, insecureAccept{}) != nil {
			e.stats.InvalidMessages++
			return
		}
	}
	e.stats.CheckpointCertsAdopted++
	e.deliverCheckpointCert(cert)
}

// deliverCheckpointCert attaches a certificate to the execution layer once
// per commit seq, in ascending order, and prunes accumulator state behind it:
// it becomes the certified state for proof-carrying reads and certified
// snapshot serving. Reports whether the certificate was fresh (and therefore
// delivered).
func (e *Engine) deliverCheckpointCert(cert *checkpoint.Certificate) bool {
	// Commit seqs start at 1, so the zero-valued ckptDelivered means "none".
	if cert.Meta.CommitSeq <= e.ckptDelivered {
		return false
	}
	e.ckptDelivered = cert.Meta.CommitSeq
	e.ckptAcc.PruneTo(cert.Meta.CommitSeq)
	e.exec.AttachCertificate(cert.Meta.CommitSeq, cert)
	e.observer.CheckpointCertified(cert)
	return true
}

// insecureAccept satisfies crypto.Scheme for structure-only certificate
// verification when VerifySignatures is off (tests, simulations): every
// signature "verifies", so Certificate.Verify still enforces signer order,
// committee membership and quorum stake.
type insecureAccept struct{}

func (insecureAccept) Name() string { return "accept-all" }

func (insecureAccept) GenerateKey(seed [32]byte) (crypto.PrivateKey, crypto.PublicKey, error) {
	return nil, nil, nil
}

func (insecureAccept) Sign(priv crypto.PrivateKey, msg []byte) (crypto.Signature, error) {
	return nil, nil
}

func (insecureAccept) Verify(pub crypto.PublicKey, msg []byte, sig crypto.Signature) bool {
	return true
}
