package engine

import (
	"hash/crc32"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/types"
)

// snapCRCTable checksums snapshot chunks (CRC32-C, the same polynomial the
// WAL frames with).
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// SnapshotMeta identifies an execution checkpoint on the wire: the engine
// treats the snapshot payload as opaque bytes and leaves content
// verification to the installer (the execution layer recomputes the state
// digest after restoring).
type SnapshotMeta struct {
	// Round is the anchor round of the checkpoint's last applied commit.
	Round types.Round
	// CommitSeq is the checkpoint's commit sequence number.
	CommitSeq uint64
	// StateRoot is the executor's chained commit root at CommitSeq.
	StateRoot types.Digest
	// StateDigest is the state machine's content digest at the checkpoint.
	StateDigest types.Digest
}

// Execution is the execution layer as the engine sees it. Implemented by
// *execution.Executor.
type Execution interface {
	// LatestSnapshot returns the newest checkpoint's metadata and encoded
	// payload, or ok=false when no checkpoint exists yet.
	LatestSnapshot() (meta SnapshotMeta, data []byte, ok bool)
	// SnapshotAt returns the retained checkpoint whose anchor round is
	// exactly round (ok=false when rotated out). Serving the requester's
	// pinned round keeps a multi-chunk fetch resumable across checkpoint
	// rotation — without it, a committee checkpointing faster than a fetch
	// completes would force a restart from chunk zero every time.
	SnapshotAt(round types.Round) (meta SnapshotMeta, data []byte, ok bool)
	// InstallFromWire verifies and applies a fetched snapshot, returning how
	// far the engine should fast-forward. restore is the scheduler's
	// RestoreState: it is handed the snapshot's scheduler state after every
	// check on the snapshot passed and before the ledger is adopted, and its
	// error refuses the install, so a refusal leaves ledger, committer and
	// schedule untouched and an accepted snapshot moves all three.
	InstallFromWire(meta SnapshotMeta, data []byte, restore func([]byte) error) (*SnapshotInstall, error)
	// CheckpointCerts reports whether the layer was built for checkpoint
	// certification: only then does the engine gossip signature shares over
	// the checkpoints the runtime reports (OnLocalCheckpoint) and assemble
	// quorum certificates.
	CheckpointCerts() bool
	// AttachCertificate receives each certified checkpoint exactly once, in
	// ascending commit seq, on the engine goroutine.
	AttachCertificate(seq uint64, cert *checkpoint.Certificate) bool
}

// OrderedVertex names one vertex a snapshot already covers, so the committer
// resumes with the exact ordered set at the boundary.
type OrderedVertex struct {
	Digest types.Digest
	Round  types.Round
}

// SnapshotInstall is the installer's instruction back to the engine after a
// snapshot was verified and applied to the execution layer, and the
// scheduler restored from it: how far to fast-forward the protocol state.
type SnapshotInstall struct {
	// PruneTo is the new DAG/protocol retention floor: rounds below it are
	// covered by the snapshot and pruned; rounds at or above it are
	// re-fetched through certificate sync.
	PruneTo types.Round
	// Ordered lists the snapshot's already-ordered vertices at rounds >=
	// PruneTo (the committer must not re-order them).
	Ordered []OrderedVertex
}

// snapFetch is the requester-side state of one chunked snapshot download,
// pinned to the checkpoint round an offer named. Chunks come from a single
// responder: snapshot encodings are not byte-identical across validators, so
// a responder switch restarts at chunk zero.
type snapFetch struct {
	active bool
	target types.ValidatorID
	meta   SnapshotMeta
	chunks uint32
	next   uint32
	buf    []byte
	// received counts accepted chunks; the pacing timer retries when it did
	// not advance, and rotates responders after stallRetries stalls.
	received     uint64
	lastReceived uint64
	retries      int
}

// snapshotStallRetries is how many pacing-timer stalls are retried against
// the same responder before rotating to another one.
const snapshotStallRetries = 2

// maxSnapshotFetchBytes caps the assembled snapshot buffer. The responder
// declares its own chunk count, so without this bound a malicious peer could
// grow the requester's buffer without limit (chunk count and chunk sizes are
// attacker-controlled); overflowing the cap aborts the fetch as corrupt.
const maxSnapshotFetchBytes = 256 << 20

// startSnapshotFetch begins a snapshot download from a pull reply's
// checkpoint offer: the fetch is pinned to the offered checkpoint from its
// very first request, so the responder serves chunk zero of that round
// directly (and keeps serving it from retention if it rotates to a newer
// checkpoint mid-fetch). No-op when a fetch is already running.
func (e *Engine) startSnapshotFetch(from types.ValidatorID, offer SnapshotMeta, out *Output) {
	if e.snapFetch.active {
		return
	}
	target, ok := e.syncPeer(from)
	if !ok {
		return
	}
	e.snapFetch = snapFetch{active: true, target: target, meta: offer}
	e.requestSnapshotChunk(out)
	out.timer(Timer{Kind: TimerSnapshot, Delay: 2 * e.config.resyncInterval()})
}

// requestSnapshotChunk asks the pinned responder for the fetch's next chunk.
func (e *Engine) requestSnapshotChunk(out *Output) {
	f := &e.snapFetch
	e.stats.SnapshotRequests++
	out.unicast(f.target, &Message{Kind: KindSnapshotRequest, SnapshotRequest: &SnapshotRequest{
		HaveRound: e.committer.LastOrderedRound(),
		Round:     f.meta.Round,
		Chunk:     f.next,
	}})
}

// onSnapshotTimer paces an active fetch: a stalled download (no chunk since
// the last firing) is retried, rotating to the next responder after
// snapshotStallRetries stalls; the fetch stays pinned to its round.
func (e *Engine) onSnapshotTimer(out *Output) {
	f := &e.snapFetch
	if !f.active {
		return
	}
	if f.received == f.lastReceived {
		f.retries++
		if f.retries > snapshotStallRetries {
			// Responder unresponsive (crashed, no snapshot, lost messages):
			// restart the fetch against the next peer.
			next, ok := e.nextPeer(f.target)
			if !ok {
				f.active = false
				return
			}
			*f = snapFetch{active: true, target: next, meta: f.meta}
		}
		e.requestSnapshotChunk(out)
	} else {
		f.retries = 0
	}
	f.lastReceived = f.received
	out.timer(Timer{Kind: TimerSnapshot, Delay: 2 * e.config.resyncInterval()})
}

// onSnapshotRequest serves one chunk of the latest local checkpoint.
func (e *Engine) onSnapshotRequest(from types.ValidatorID, req *SnapshotRequest, out *Output) {
	if req == nil || from == e.self {
		return
	}
	meta, data, ok := e.exec.LatestSnapshot()
	if !ok || meta.Round <= req.HaveRound {
		// Nothing newer than the requester already has: explicit empty
		// response so it can move on to another peer.
		e.stats.SnapshotResponses++
		out.unicast(from, &Message{Kind: KindSnapshotResponse, SnapshotResponse: &SnapshotResponse{}})
		return
	}
	if req.Round != meta.Round {
		// The requester pinned an older checkpoint mid-fetch; serve it from
		// retention if we still can, so the fetch stays resumable across our
		// checkpoint rotation.
		if m, d, ok := e.exec.SnapshotAt(req.Round); ok && m.Round > req.HaveRound {
			meta, data = m, d
		}
	}
	cs := snapshotChunkBytes
	chunks := uint32((len(data) + cs - 1) / cs)
	if chunks == 0 {
		chunks = 1
	}
	chunk := req.Chunk
	if req.Round != meta.Round || chunk >= chunks {
		// The requester pinned a checkpoint we no longer hold (or asked past
		// the end): serve chunk zero of the current one; it will restart.
		chunk = 0
	}
	start := int(chunk) * cs
	end := start + cs
	if end > len(data) {
		end = len(data)
	}
	e.stats.SnapshotResponses++
	out.unicast(from, &Message{Kind: KindSnapshotResponse, SnapshotResponse: &SnapshotResponse{
		Round:       meta.Round,
		CommitSeq:   meta.CommitSeq,
		StateRoot:   meta.StateRoot,
		StateDigest: meta.StateDigest,
		Chunks:      chunks,
		Chunk:       chunk,
		Data:        data[start:end],
		DataCRC:     crc32.Checksum(data[start:end], snapCRCTable),
	}})
}

// onSnapshotResponse advances the active fetch: adopt the checkpoint on the
// first chunk, append in-order chunks, and install when complete.
func (e *Engine) onSnapshotResponse(from types.ValidatorID, resp *SnapshotResponse, nowNanos int64, out *Output) {
	f := &e.snapFetch
	if resp == nil || !f.active || from != f.target {
		return
	}
	if resp.Round == 0 {
		// Responder has no checkpoint newer than what we hold: give up this
		// attempt; the next offer starts another.
		f.active = false
		return
	}
	if resp.Round <= e.committer.LastOrderedRound() {
		// The responder's checkpoint is older than our applied state
		// (possible when we advanced while fetching): installing it would
		// move us backwards. Abort.
		f.active = false
		return
	}
	if crc32.Checksum(resp.Data, snapCRCTable) != resp.DataCRC {
		// Corrupted chunk, caught on receipt: drop it before it can reach the
		// assembly buffer (a bad chunk would otherwise only surface after the
		// whole fetch — up to the 256MB cap — completed and the installer's
		// digest recomputation failed). The pacing timer re-pulls it.
		e.stats.SnapshotChunkRejects++
		return
	}
	if f.meta.Round != resp.Round || f.chunks == 0 {
		// First chunk (the offer seeds the metadata but cannot know the
		// chunk count), or the responder no longer holds the pinned
		// checkpoint: (re)start assembly. A non-zero first chunk cannot seed
		// a fetch — re-request from chunk zero of the responder's current
		// checkpoint.
		f.meta = SnapshotMeta{
			Round:       resp.Round,
			CommitSeq:   resp.CommitSeq,
			StateRoot:   resp.StateRoot,
			StateDigest: resp.StateDigest,
		}
		f.chunks = resp.Chunks
		f.next = 0
		f.buf = f.buf[:0]
		if resp.Chunk != 0 {
			e.requestSnapshotChunk(out)
			return
		}
	}
	if resp.Chunk != f.next || resp.Chunks != f.chunks {
		if resp.Chunk > f.next {
			// Gap (lost chunk): re-pull the one we need.
			e.requestSnapshotChunk(out)
		}
		return // duplicates are dropped silently
	}
	if len(f.buf)+len(resp.Data) > maxSnapshotFetchBytes {
		// Oversized snapshot (or a responder lying about chunk counts and
		// sizes): abort rather than buffer without bound.
		e.stats.SnapshotInstallFailures++
		*f = snapFetch{}
		return
	}
	f.buf = append(f.buf, resp.Data...)
	f.next++
	f.received++
	if f.next < f.chunks {
		e.requestSnapshotChunk(out)
		return
	}

	meta, data := f.meta, f.buf
	*f = snapFetch{}
	install, err := e.exec.InstallFromWire(meta, data, e.scheduler.RestoreState)
	if err != nil {
		// Corrupted or forged snapshot (the installer recomputes the state
		// digest), one whose scheduler state the scheduler refuses, or one
		// stale relative to the executor. Count it; the next offer starts
		// another fetch.
		e.stats.SnapshotInstallFailures++
		return
	}
	e.applySnapshotInstall(meta, install, nowNanos, out)
	e.stats.SnapshotInstalls++
}

// applySnapshotInstall fast-forwards the protocol state after the execution
// layer accepted a snapshot and restored the scheduler from it: the
// committer resumes at the checkpoint's commit cursor with the boundary's
// ordered set, the scheduler jumps, the DAG and the engine's round window
// prune to the boundary floor, and pending certificates that became
// insertable (their parents are now below the floor) cascade into the DAG.
func (e *Engine) applySnapshotInstall(meta SnapshotMeta, install *SnapshotInstall, nowNanos int64, out *Output) {
	ordered := make(map[types.Digest]types.Round, len(install.Ordered))
	for _, ov := range install.Ordered {
		ordered[ov.Digest] = ov.Round
	}
	e.committer.FastForward(meta.Round, meta.CommitSeq, install.PruneTo, ordered)
	e.scheduler.FastForwardTo(meta.Round)
	e.dagStore.Prune(install.PruneTo)
	e.pruneProtocolState(install.PruneTo)
	if e.round < meta.Round {
		// Proposing for long-gone rounds is useless; resume at the
		// checkpoint round and let the catch-up jump take over once synced
		// certificates rebuild a quorum frontier.
		e.resumeAt(meta.Round)
	}
	e.drainPendingAfterInstall(nowNanos, out)
	e.tryAdvance(nowNanos, out)
}

// drainPendingAfterInstall re-attempts the pending certificates the install
// made insertable: those at the boundary round, whose parents are now below
// the pruned floor (vacuously satisfied) — typically the bulk of what a
// recovering node had pended while the fetch ran. Their insertion retries the
// certificates above that name them, round by round; one still missing
// parents stays pending as it was.
func (e *Engine) drainPendingAfterInstall(nowNanos int64, out *Output) {
	rs := e.rounds.At(e.rounds.Floor())
	if rs == nil {
		return
	}
	for s, c := range rs.pending {
		if c == nil {
			continue
		}
		rs.pending[s] = nil
		if e.insertCert(c, nowNanos, out) {
			e.pend(c)
		}
	}
}

// FastForwardToSnapshot fast-forwards the protocol state to a checkpoint the
// runtime installed out of band (recovery restoring a locally persisted
// snapshot before WAL replay), with the engine's scheduler restored by that
// install (see Scheduler). Must be called from the engine's goroutine; the
// returned output carries any follow-up work, dispatchable like any other
// step's.
func (e *Engine) FastForwardToSnapshot(meta SnapshotMeta, install *SnapshotInstall, nowNanos int64) *Output {
	out := &Output{}
	e.applySnapshotInstall(meta, install, nowNanos, out)
	return out
}
