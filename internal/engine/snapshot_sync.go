package engine

import (
	"hash/crc32"
	"sort"

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
// *execution.Executor; an engine without one neither serves nor requests
// snapshots and certifies no checkpoints.
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
	// far the engine should fast-forward. Requesting snapshots is
	// additionally gated on the scheduler supporting the jump
	// (leader.RoundRobin does; core.Manager does too, restoring its
	// reputation state from the snapshot's scheduler-state payload first).
	InstallFromWire(meta SnapshotMeta, data []byte) (*SnapshotInstall, error)
	// AppliedSeq reports the applied commit sequence; the crash-rejoin
	// handshake carries it in frontiers so restarting peers can see how far
	// each survivor's executor reaches.
	AppliedSeq() uint64
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
// snapshot was verified and applied to the execution layer: how far to
// fast-forward the protocol state.
type SnapshotInstall struct {
	// PruneTo is the new DAG/protocol retention floor: rounds below it are
	// covered by the snapshot and pruned; rounds at or above it are
	// re-fetched through certificate sync.
	PruneTo types.Round
	// Ordered lists the snapshot's already-ordered vertices at rounds >=
	// PruneTo (the committer must not re-order them).
	Ordered []OrderedVertex
	// SchedulerState is the snapshot's encoded scheduler state (empty for
	// stateless schedulers). When the engine's scheduler is a
	// leader.StateRestorer, it is restored before the committer
	// fast-forwards, so ordering resumes under the exact schedule the
	// snapshot was cut under.
	SchedulerState []byte
}

// scheduleFastForwarder is implemented by schedulers whose leader resolution
// stays correct when the engine jumps past unseen ordering history.
// leader.RoundRobin implements it (the static schedule covers every round);
// core.Manager implements it together with leader.StateRestorer — its
// reputation schedule rides in snapshots, is restored first, and the
// fast-forward itself is then a cursor adjustment.
type scheduleFastForwarder interface {
	FastForwardTo(round types.Round)
}

// snapFetch is the requester-side state of one chunked snapshot download.
// Chunks come from a single pinned responder: snapshot encodings are not
// byte-identical across validators, so a responder switch restarts at chunk
// zero.
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
	lastAttempt  int64
}

// snapshotStallRetries is how many pacing-timer stalls are retried against
// the same responder before rotating to another one.
const snapshotStallRetries = 2

// maxSnapshotFetchBytes caps the assembled snapshot buffer. The responder
// declares its own chunk count, so without this bound a malicious peer could
// grow the requester's buffer without limit (chunk count and chunk sizes are
// attacker-controlled); overflowing the cap aborts the fetch as corrupt.
const maxSnapshotFetchBytes = 256 << 20

// snapshotChunkSize returns the configured chunk payload size.
func (e *Engine) snapshotChunkSize() int {
	if e.config.SnapshotChunkBytes > 0 {
		return e.config.SnapshotChunkBytes
	}
	return DefaultSnapshotChunkBytes
}

// snapshotSyncEnabled reports whether this engine may REQUEST snapshot
// state-sync: it needs an execution layer to install into and a scheduler
// that stays correct across the jump.
func (e *Engine) snapshotSyncEnabled() bool {
	return e.exec != nil && e.schedFastForward != nil
}

// beyondGCHorizon reports whether the observed certificate frontier is so
// far above our DAG that the gap can no longer be closed by certificate
// sync: peers have pruned history deeper than GCDepth below their frontier,
// so a node missing more than that must install a snapshot.
func (e *Engine) beyondGCHorizon() bool {
	floor := max(e.dagStore.HighestRound(), e.rounds.Floor())
	return e.maxPendingRound > floor+types.Round(e.config.GCDepth)
}

// maybeSnapshotSync starts a snapshot fetch when one is needed and none is
// active. Rate-limited by ResyncInterval between attempts.
func (e *Engine) maybeSnapshotSync(hint types.ValidatorID, nowNanos int64, out *Output) {
	if !e.snapshotSyncEnabled() || e.snapFetch.active {
		return
	}
	if e.snapFetch.lastAttempt != 0 && nowNanos-e.snapFetch.lastAttempt < e.config.ResyncInterval.Nanoseconds() {
		return
	}
	target, ok := e.syncPeer(hint)
	if !ok {
		return
	}
	e.snapFetch = snapFetch{active: true, target: target, lastAttempt: nowNanos}
	e.requestSnapshotChunk(out)
	out.timer(Timer{Kind: TimerSnapshot, Delay: 2 * e.config.ResyncInterval})
}

// startOfferedSnapshotFetch begins a snapshot download seeded by a rejoin
// response's checkpoint offer: the fetch is pinned to the offered checkpoint
// from its very first request, so the responder serves chunk zero of that
// round directly (and keeps serving it from retention if it rotates to a
// newer checkpoint mid-fetch) instead of the requester first discovering the
// checkpoint identity from a blind first response. No-op when snapshot sync
// is disabled or a fetch is already running.
func (e *Engine) startOfferedSnapshotFetch(from types.ValidatorID, offer SnapshotMeta, nowNanos int64, out *Output) {
	if !e.snapshotSyncEnabled() || e.snapFetch.active || offer.Round == 0 {
		return
	}
	if offer.Round <= e.lastOrderedRound() {
		return // offer is behind what we already applied
	}
	target, ok := e.syncPeer(from)
	if !ok {
		return
	}
	e.snapFetch = snapFetch{active: true, target: target, meta: offer, lastAttempt: nowNanos}
	e.requestSnapshotChunk(out)
	out.timer(Timer{Kind: TimerSnapshot, Delay: 2 * e.config.ResyncInterval})
}

// requestSnapshotChunk asks the pinned responder for the fetch's next chunk.
func (e *Engine) requestSnapshotChunk(out *Output) {
	f := &e.snapFetch
	e.stats.SnapshotRequests++
	out.unicast(f.target, &Message{Kind: KindSnapshotRequest, SnapshotRequest: &SnapshotRequest{
		HaveRound: e.lastOrderedRound(),
		Round:     f.meta.Round,
		Chunk:     f.next,
	}})
}

// onSnapshotTimer paces an active fetch: a stalled download (no chunk since
// the last firing) is retried, rotating to the next responder after
// snapshotStallRetries stalls.
func (e *Engine) onSnapshotTimer(nowNanos int64, out *Output) {
	f := &e.snapFetch
	if !f.active {
		return
	}
	if f.received == f.lastReceived {
		f.retries++
		if f.retries > snapshotStallRetries {
			// Responder unresponsive (crashed, no snapshot, lost messages):
			// restart the fetch against the next peer.
			next, ok := e.syncPeer(f.target + 1)
			if !ok {
				f.active = false
				return
			}
			*f = snapFetch{active: true, target: next, lastAttempt: nowNanos}
		}
		e.requestSnapshotChunk(out)
	} else {
		f.retries = 0
	}
	f.lastReceived = f.received
	out.timer(Timer{Kind: TimerSnapshot, Delay: 2 * e.config.ResyncInterval})
}

// onSnapshotRequest serves one chunk of the latest local checkpoint.
func (e *Engine) onSnapshotRequest(from types.ValidatorID, req *SnapshotRequest, out *Output) {
	if req == nil || e.exec == nil || from == e.self {
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
	if req.Round != 0 && req.Round != meta.Round {
		// The requester pinned an older checkpoint mid-fetch; serve it from
		// retention if we still can, so the fetch stays resumable across our
		// checkpoint rotation.
		if m, d, ok := e.exec.SnapshotAt(req.Round); ok && m.Round > req.HaveRound {
			meta, data = m, d
		}
	}
	cs := e.snapshotChunkSize()
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
		// attempt; the next trigger rotates the hint to another peer.
		f.active = false
		f.lastAttempt = nowNanos
		return
	}
	if resp.Round <= e.lastOrderedRound() {
		// The responder's checkpoint is older than our applied state
		// (possible when we advanced while fetching): installing it would
		// move us backwards. Abort.
		f.active = false
		f.lastAttempt = nowNanos
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
		// First chunk (blind or pinned by a rejoin checkpoint offer, which
		// seeds the metadata but cannot know the chunk count), or the
		// responder rotated its checkpoint mid-fetch: (re)start assembly. A
		// non-zero first chunk cannot seed a fetch — re-request from chunk
		// zero of the responder's current checkpoint.
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
		*f = snapFetch{lastAttempt: nowNanos}
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
	*f = snapFetch{lastAttempt: nowNanos}
	install, err := e.exec.InstallFromWire(meta, data)
	if err != nil {
		// Corrupted or forged snapshot (the installer recomputes the state
		// digest), a snapshot missing required scheduler state, or one stale
		// relative to the executor. Count it and retry from scratch against
		// another peer on the next trigger.
		e.stats.SnapshotInstallFailures++
		return
	}
	if e.applySnapshotInstall(meta, install, nowNanos, out) {
		e.stats.SnapshotInstalls++
	}
}

// applySnapshotInstall fast-forwards the protocol state after the execution
// layer accepted a snapshot: the scheduler's state is restored first (when it
// carries one), the committer resumes at the checkpoint's commit cursor with
// the boundary's ordered set, the scheduler jumps, the DAG and every
// ingest-owned map prune to the boundary floor, and pending certificates that
// became insertable (their parents are now below the floor) cascade into the
// DAG. Returns false — leaving ordering state untouched — when the scheduler
// needs state the install does not carry (a snapshot cut under a stateless
// scheduler): the runtime then falls back to WAL replay, with the executor's
// sequence dedupe absorbing re-derived commits.
func (e *Engine) applySnapshotInstall(meta SnapshotMeta, install *SnapshotInstall, nowNanos int64, out *Output) bool {
	ordered := make(map[types.Digest]types.Round, len(install.Ordered))
	for _, ov := range install.Ordered {
		ordered[ov.Digest] = ov.Round
	}
	if e.stage != nil {
		e.stage.mu.Lock()
	}
	if e.schedRestore != nil {
		if len(install.SchedulerState) == 0 || e.schedRestore.RestoreState(install.SchedulerState) != nil {
			if e.stage != nil {
				e.stage.mu.Unlock()
			}
			e.stats.SnapshotInstallFailures++
			return false
		}
	}
	e.committer.FastForward(meta.Round, meta.CommitSeq, install.PruneTo, ordered)
	if e.schedFastForward != nil {
		e.schedFastForward.FastForwardTo(meta.Round)
	}
	if e.stage != nil {
		e.stage.mu.Unlock()
	}
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
	return true
}

// drainPendingAfterInstall re-attempts pending certificates the install made
// insertable: certificates at the boundary round whose parents are now below
// the pruned floor (vacuously satisfied) — typically the bulk of what a
// recovering node had pended while the fetch ran — plus anything their
// insertion cascades. Every pending certificate is offered to the DAG, whose
// Insert is what knows; one still missing parents stays pending as it was.
// Deterministic order for reproducible simulations.
func (e *Engine) drainPendingAfterInstall(nowNanos int64, out *Output) {
	pending := make([]*Certificate, 0, len(e.pendingCerts))
	for _, c := range e.pendingCerts {
		pending = append(pending, c)
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].Header.Round != pending[j].Header.Round {
			return pending[i].Header.Round < pending[j].Header.Round
		}
		return pending[i].Header.Source < pending[j].Header.Source
	})
	for _, c := range pending {
		if _, still := e.pendingCerts[c.Digest()]; !still {
			continue // an earlier insert cascaded it already
		}
		e.insertCert(c, nowNanos, out)
	}
	e.sweepPendingIndexes()
}

// CanFastForwardSchedule reports whether the engine's scheduler stays
// correct when ordering jumps past unseen history (snapshot install). True
// for the round-robin baseline AND for HammerHead's reputation scheduler
// (which additionally restores its state from the snapshot; a snapshot
// carrying none makes the jump itself no-op at apply time).
func (e *Engine) CanFastForwardSchedule() bool { return e.schedFastForward != nil }

// FastForwardToSnapshot fast-forwards the protocol state to a checkpoint the
// runtime installed out of band (recovery restoring a locally persisted
// snapshot before WAL replay). Must be called from the engine's goroutine;
// the returned output carries any follow-up work, dispatchable like any
// other step's. No-op (empty output) when the scheduler cannot follow the
// jump — including a stateful scheduler handed a snapshot with no
// scheduler state — in which case the runtime relies on WAL replay to
// rebuild ordering state, with the executor's sequence dedupe absorbing
// re-derived commits.
func (e *Engine) FastForwardToSnapshot(meta SnapshotMeta, install *SnapshotInstall, nowNanos int64) *Output {
	out := &Output{}
	if !e.CanFastForwardSchedule() {
		return out
	}
	e.applySnapshotInstall(meta, install, nowNanos, out)
	return out
}
