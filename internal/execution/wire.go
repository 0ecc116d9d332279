package execution

import (
	"fmt"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// LatestSnapshot implements engine.Execution: the newest checkpoint this
// executor wrote or installed, encoded for the wire. The blob is the cached
// one (a restarted node installs its local checkpoint before it serves), so
// per-chunk requests cost a slice, not a store read or re-encode.
func (x *Executor) LatestSnapshot() (engine.SnapshotMeta, []byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return served(x.latest)
}

// SnapshotAt implements engine.Execution: the retained checkpoint at
// exactly the given anchor round, so a peer fetching the previous checkpoint
// can finish after we rotate to a newer one.
func (x *Executor) SnapshotAt(round types.Round) (engine.SnapshotMeta, []byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range []*ckpt{x.latest, x.prev} {
		if c != nil && c.snap.Round == round {
			return served(c)
		}
	}
	return engine.SnapshotMeta{}, nil, false
}

// served is a cached checkpoint as the wire serves it. The caller holds the
// executor's lock.
func served(c *ckpt) (engine.SnapshotMeta, []byte, bool) {
	if c == nil || c.snap.CommitSeq == 0 {
		return engine.SnapshotMeta{}, nil, false
	}
	return engine.SnapshotMeta{
		Round:       c.snap.Round,
		CommitSeq:   c.snap.CommitSeq,
		StateRoot:   c.snap.StateRoot,
		StateDigest: c.snap.StateDigest,
	}, c.blob, true
}

// InstallFromWire implements engine.Execution: decode the fetched
// blob, cross-check it against the metadata the responder advertised, verify
// and install it into the executor, restoring the scheduler through restore,
// and tell the engine how far to fast-forward. A corrupted chunk fails here —
// either the decode, the metadata cross-check, or the executor's state-digest
// recomputation — and so does a snapshot whose scheduler state restore
// refuses, with the ledger untouched.
func (x *Executor) InstallFromWire(meta engine.SnapshotMeta, data []byte, restore func([]byte) error) (*engine.SnapshotInstall, error) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if snap.Round != meta.Round || snap.CommitSeq != meta.CommitSeq ||
		snap.StateRoot != meta.StateRoot || snap.StateDigest != meta.StateDigest {
		return nil, fmt.Errorf("execution: snapshot payload does not match advertised checkpoint (round %d/%d seq %d/%d)",
			snap.Round, meta.Round, snap.CommitSeq, meta.CommitSeq)
	}
	if x.cfg.CheckpointCerts {
		// Also before Install: an uncertified (or mis-certified) snapshot
		// must not touch the state machine, so the fetch retries another
		// responder — or the same one later, once certification gossip
		// completes for a freshly cut checkpoint.
		if err := verifySnapshotCert(&snap, x.cfg.CertVerifier); err != nil {
			return nil, err
		}
	}
	if err := x.install(snap, restore); err != nil {
		return nil, err
	}
	return snapshotInstallPlan(snap), nil
}

// verifySnapshotCert checks that a wire snapshot carries a quorum checkpoint
// certificate covering exactly its own tuple: round, commit seq, chained
// state root, state digest, and the digest of the scheduler state riding in
// the blob. verifier (non-nil) then vets the certificate's signatures and
// quorum stake. Any failure means the responder's bytes are not the state a
// 2f+1 quorum executed — reject without touching local state.
func verifySnapshotCert(snap *Snapshot, verifier func(*checkpoint.Certificate) error) error {
	cert := snap.Cert
	if cert == nil {
		return fmt.Errorf("execution: snapshot at seq %d carries no checkpoint certificate", snap.CommitSeq)
	}
	if !cert.Matches(snap.Meta()) {
		return fmt.Errorf("execution: checkpoint certificate does not cover the snapshot tuple at seq %d", snap.CommitSeq)
	}
	if verifier != nil {
		if err := verifier(cert); err != nil {
			return fmt.Errorf("execution: checkpoint certificate rejected: %w", err)
		}
	}
	return nil
}

// snapshotInstallPlan converts a verified snapshot into the engine's
// fast-forward instruction.
func snapshotInstallPlan(snap Snapshot) *engine.SnapshotInstall {
	ordered := make([]engine.OrderedVertex, len(snap.Ordered))
	for i, ref := range snap.Ordered {
		ordered[i] = engine.OrderedVertex{Digest: ref.Digest, Round: ref.Round}
	}
	return &engine.SnapshotInstall{PruneTo: snap.Floor, Ordered: ordered}
}

// InstallLocal installs a locally persisted snapshot (node restart) into the
// executor, restoring the scheduler through restore as InstallFromWire does,
// and returns the engine fast-forward plan plus the checkpoint metadata. Used
// before WAL replay so a node that slept past the GC horizon resumes from its
// own checkpoint instead of an unrecoverable gap.
func (x *Executor) InstallLocal(snap Snapshot, restore func([]byte) error) (engine.SnapshotMeta, *engine.SnapshotInstall, error) {
	if err := x.install(snap, restore); err != nil {
		return engine.SnapshotMeta{}, nil, err
	}
	meta := engine.SnapshotMeta{
		Round:       snap.Round,
		CommitSeq:   snap.CommitSeq,
		StateRoot:   snap.StateRoot,
		StateDigest: snap.StateDigest,
	}
	return meta, snapshotInstallPlan(snap), nil
}
