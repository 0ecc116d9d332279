package execution

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
	"hammerhead/internal/wire"
)

// ErrStaleSnapshot is returned by Install when the snapshot is no newer than
// the executor's applied state (a responder can legitimately hold an older
// checkpoint than the requester has already applied).
var ErrStaleSnapshot = errors.New("execution: snapshot not newer than applied state")

// Checkpoint identifies one execution checkpoint: the executor's cursor after
// applying commit CommitSeq, whose anchor was at Round.
type Checkpoint struct {
	// Round is the anchor round of the last applied commit.
	Round types.Round
	// CommitSeq is the 1-based sequence number of the last applied commit.
	CommitSeq uint64
	// StateRoot is the executor's incremental root: a hash chained over every
	// applied commit (H(prev, commit digest)). Equal roots at equal seq imply
	// identical applied commit streams.
	StateRoot types.Digest
	// StateDigest is the state machine's own content digest at the
	// checkpoint. Recomputed after a snapshot restore to verify the
	// transferred bytes.
	StateDigest types.Digest
}

// OrderedRef records one ordered vertex near the checkpoint boundary, so an
// installing committer can skip vertices the snapshot already covers while
// still ordering boundary stragglers exactly like live validators do.
type OrderedRef struct {
	Digest types.Digest
	Round  types.Round
}

// Snapshot is one transferable checkpoint: identity, the ordered-vertex
// window at the boundary, and the serialized state machine.
type Snapshot struct {
	Checkpoint
	// Floor is the DAG retention floor after installing the snapshot: rounds
	// below it are fully covered (pruned by the installer), rounds at or
	// above it are re-fetched through certificate sync, with Ordered telling
	// the committer which of their vertices the snapshot already applied —
	// so boundary stragglers order identically to live validators.
	Floor types.Round
	// Ordered lists every ordered vertex with round >= Floor, sorted by
	// (round, digest).
	Ordered []OrderedRef
	// Data is StateMachine.Snapshot() at the checkpoint.
	Data []byte
	// SchedulerState is the leader scheduler's encoded state right after the
	// checkpoint's commit (core.ManagerState under HammerHead; empty under
	// the round-robin baseline). Installers running a stateful scheduler
	// restore it before the engine fast-forwards, so the restored schedule
	// is bit-equal to a live node's.
	SchedulerState []byte
	// Cert is the 2f+1 checkpoint certificate over this snapshot's tuple,
	// attached once the validator quorum certified it (nil on fresh
	// checkpoints whose certification gossip is still in flight). Installers
	// configured with CheckpointCerts verify it instead of trusting the
	// responder.
	Cert *checkpoint.Certificate
}

// EncodeSnapshot serializes a snapshot for the wire or disk in the
// wire-codec, checksummed framing.
//
//hammerlint:deterministic
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	return sealSnapshot(snapshotBody(s), s.Cert), nil
}

// snapshotBody encodes everything in s but its certificate: the part of a
// blob that stays when a certificate is sealed on later.
//
//hammerlint:deterministic
func snapshotBody(s Snapshot) []byte {
	// The slack covers the framing and the seal of an uncertified blob (flag
	// and checksum), so sealing one appends in place.
	buf := make([]byte, 0, len(s.Data)+len(s.SchedulerState)+len(s.Ordered)*48+256)
	buf = append(buf, snapshotMagic, snapshotWireV3)
	buf = wire.AppendU64(buf, uint64(s.Round))
	buf = wire.AppendU64(buf, s.CommitSeq)
	buf = wire.AppendDigest(buf, s.StateRoot)
	buf = wire.AppendDigest(buf, s.StateDigest)
	buf = wire.AppendU64(buf, uint64(s.Floor))
	buf = wire.AppendUvarint(buf, uint64(len(s.Ordered)))
	for i := range s.Ordered {
		buf = wire.AppendDigest(buf, s.Ordered[i].Digest)
		buf = wire.AppendU64(buf, uint64(s.Ordered[i].Round))
	}
	buf = wire.AppendBytes(buf, s.Data)
	return wire.AppendBytes(buf, s.SchedulerState)
}

// sealSnapshot completes a snapshotBody into the blob EncodeSnapshot
// returns: the certificate (nil: none), then the whole-blob checksum. It
// appends in place only where body has room to spare; a body cut from a blob
// being served (capped at its length) is copied, so readers holding the old
// blob never see it change.
//
//hammerlint:deterministic
func sealSnapshot(body []byte, cert *checkpoint.Certificate) []byte {
	var tail []byte
	if cert != nil {
		tail = checkpoint.AppendCertificate(nil, cert)
	}
	if need := len(body) + 1 + len(tail) + 4; cap(body) < need {
		body = append(make([]byte, 0, need), body...)
	}
	buf := wire.AppendBool(body, cert != nil)
	buf = append(buf, tail...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(buf[2:], snapshotCRCTable))
	return append(buf, crc[:]...)
}

// Snapshot wire framing. The install path's digest recomputation only covers
// Data (it IS the state machine's content digest), so a bit flip in Floor,
// Ordered or SchedulerState would otherwise decode cleanly and install — a
// whole-blob checksum closes that gap. Version 0x02 (a checksummed gob body)
// and any first byte other than the magic (a bare gob stream) are retired
// generations: a format revision takes the next version up and never reuses
// one.
const (
	snapshotMagic  = 0x00
	snapshotWireV3 = 0x03

	// _orderedRefWire is one encoded OrderedRef (digest + fixed round).
	_orderedRefWire = types.DigestSize + 8
)

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DecodeSnapshot parses an EncodeSnapshot blob, verifying the framing and the
// whole-blob checksum; any other framing is refused. Decoded byte fields are
// copied, not aliased: snapshots are reassembled from transfer chunks and
// installed long after the source buffer is gone.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	if len(data) < 6 || data[0] != snapshotMagic || data[1] != snapshotWireV3 {
		return Snapshot{}, fmt.Errorf("execution: malformed snapshot framing")
	}
	body, trailer := data[2:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapshotCRCTable) != binary.BigEndian.Uint32(trailer) {
		return Snapshot{}, fmt.Errorf("execution: snapshot checksum mismatch (corrupt blob)")
	}
	return decodeSnapshotWire(body)
}

func decodeSnapshotWire(body []byte) (Snapshot, error) {
	r := wire.NewReader(body)
	s := Snapshot{Checkpoint: Checkpoint{
		Round:       types.Round(r.U64()),
		CommitSeq:   r.U64(),
		StateRoot:   r.Digest(),
		StateDigest: r.Digest(),
	}}
	s.Floor = types.Round(r.U64())
	n := r.Count(_orderedRefWire)
	if n > 0 {
		s.Ordered = make([]OrderedRef, 0, n)
	}
	for i := 0; i < n; i++ {
		s.Ordered = append(s.Ordered, OrderedRef{Digest: r.Digest(), Round: types.Round(r.U64())})
	}
	s.Data = r.BytesCopy()
	s.SchedulerState = r.BytesCopy()
	if r.Bool() {
		c := checkpoint.ReadCertificate(r)
		if c != nil {
			cc := *c
			cc.Sigs = append([]checkpoint.Sig(nil), c.Sigs...)
			for i := range cc.Sigs {
				cc.Sigs[i].Signature = append(crypto.Signature(nil), cc.Sigs[i].Signature...)
			}
			s.Cert = &cc
		}
	}
	if err := r.Finish(); err != nil {
		return Snapshot{}, fmt.Errorf("execution: decoding snapshot: %w", err)
	}
	return s, nil
}

// sortOrderedRefs orders refs deterministically by (round, digest).
func sortOrderedRefs(refs []OrderedRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Round != refs[j].Round {
			return refs[i].Round < refs[j].Round
		}
		return bytes.Compare(refs[i].Digest[:], refs[j].Digest[:]) < 0
	})
}

// SnapshotStore persists checkpoints. storage.SnapshotStore is the file
// implementation real nodes use; MemoryStore serves tests and the
// discrete-event simulator (which must not touch the filesystem).
type SnapshotStore interface {
	// Save persists one snapshot, as its EncodeSnapshot blob, under its
	// commit sequence (replacing any with the same one), and may prune older
	// ones per its retention policy. It returns once the blob is durable. The
	// executor never changes a blob it handed over, so the store may keep it.
	Save(seq uint64, blob []byte) error
	// Latest returns the newest retained snapshot.
	Latest() (Snapshot, bool)
}

// MemoryStore is an in-memory SnapshotStore retaining only the newest
// snapshot. Safe for concurrent use.
type MemoryStore struct {
	mu   sync.Mutex
	seq  uint64 // guarded by mu
	blob []byte // guarded by mu
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore { return &MemoryStore{} }

// Save implements SnapshotStore.
func (m *MemoryStore) Save(seq uint64, blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blob == nil || seq >= m.seq {
		m.seq, m.blob = seq, blob
	}
	return nil
}

// Latest implements SnapshotStore.
func (m *MemoryStore) Latest() (Snapshot, bool) {
	m.mu.Lock()
	blob := m.blob
	m.mu.Unlock()
	if blob == nil {
		return Snapshot{}, false
	}
	snap, err := DecodeSnapshot(blob)
	return snap, err == nil
}
