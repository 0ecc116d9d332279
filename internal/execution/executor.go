package execution

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/leader"
	"hammerhead/internal/merkle"
	"hammerhead/internal/metrics"
	"hammerhead/internal/types"
)

// Defaults for Config zero values.
const (
	// DefaultCheckpointInterval is the number of commits between checkpoints.
	DefaultCheckpointInterval = 32
	// DefaultBoundaryRounds is the depth of the ordered-vertex window carried
	// by snapshots. It must exceed the deepest straggler a commit can pick up
	// below its anchor round (in healthy operation stragglers sit 1-2 rounds
	// back; the committer's own GC makes anything deeper than GCDepth
	// impossible everywhere).
	DefaultBoundaryRounds types.Round = 16
	// DefaultQueueDepth bounds the asynchronous commit queue; a full queue
	// backpressures the node's commit loop rather than dropping commits.
	DefaultQueueDepth = 1024
	// rootRingSize is how many recent (seq, root) pairs RootAt retains.
	rootRingSize = 4096
)

// Config parameterizes an Executor. The zero value selects all defaults with
// an in-memory snapshot store.
type Config struct {
	// CheckpointInterval is the number of commits between checkpoints
	// (0 = DefaultCheckpointInterval).
	CheckpointInterval uint64
	// BoundaryRounds is the ordered-window depth carried by snapshots
	// (0 = DefaultBoundaryRounds).
	BoundaryRounds types.Round
	// QueueDepth bounds the async commit queue (0 = DefaultQueueDepth).
	QueueDepth int
	// Store persists checkpoints (nil = in-memory MemoryStore).
	Store SnapshotStore
	// OnCheckpoint, when non-nil, observes every checkpoint once the store
	// has saved it (periodic, forced, final-on-close and installed ones
	// alike), in the order they were saved. The node hangs checkpoint-driven
	// WAL compaction here: the snapshot's Floor is the round below which the
	// WAL no longer needs to replay. It runs on whichever goroutine wrote the
	// checkpoint — the checkpoint goroutine after Start — holding no executor
	// lock but the writer's turn: the hook must not call back into the
	// executor; hand off to another goroutine for real work. Cert is set when
	// a certificate arrived before the write.
	OnCheckpoint func(Snapshot)
	// RequireSchedulerState, when true, makes InstallFromWire reject remote
	// snapshots that carry no scheduler state — set (by internal/validator)
	// for the HammerHead scheduler, whose ordering cannot follow a snapshot
	// jump without the schedule the snapshot was cut under. The check runs
	// before the state machine is touched, so a snapshot without one (a
	// responder running the round-robin baseline) fails cleanly and another
	// responder is tried.
	RequireSchedulerState bool
	// CheckpointCerts says the node runs checkpoint certification, which
	// asks two things of the executor. InstallFromWire rejects remote
	// snapshots that carry no checkpoint certificate, or whose certificate
	// does not cover exactly the snapshot's (round, seq, roots, scheduler
	// state) tuple; like RequireSchedulerState, the check runs before the
	// state machine is touched: a fresh checkpoint whose certification
	// gossip is still in flight fails cleanly and another responder (or a
	// later retry) is tried. And every checkpoint keeps the frozen view of
	// the KV state it was cut from for AttachCertificate to promote and
	// ProvenRead to prove against; without certification nothing reads such
	// a view once the checkpoint is written, so it is handed back to the live
	// trie, which goes on writing its nodes in place.
	CheckpointCerts bool
	// CertVerifier, when non-nil, vets the certificate's signatures and
	// quorum (typically checkpoint.Certificate.Verify against the node's
	// committee). Only consulted when CheckpointCerts is set.
	CertVerifier func(*checkpoint.Certificate) error
	// OnApplied, when non-nil, observes every commit the ASYNC apply
	// goroutine finishes (including the close-time drain) — the tracing tap
	// for the "applied" lifecycle stage. It runs on the apply goroutine with
	// no executor lock held, after ApplyCommit returns; it must not block.
	// Synchronous ApplyCommit callers (benchmarks, replay tools) bypass it.
	OnApplied func(sub bullshark.CommittedSubDAG)
	// Metrics, when non-nil, receives executor gauges and counters.
	Metrics *metrics.Registry
}

// Executor drives a StateMachine from the commit stream. It tracks
// (lastAppliedRound, stateRoot) where the root is an incremental hash chained
// per commit, emits periodic checkpoints into its SnapshotStore, and installs
// verified snapshots during state-sync.
//
// Two usage modes share the same core:
//
//   - Synchronous: call ApplyCommit from the commit-delivering goroutine
//     (the discrete-event simulator, benchmarks, trace replay). Checkpoints
//     are written before the call that cut them returns.
//   - Asynchronous: call Start once, then Submit from the commit stream; a
//     dedicated goroutine applies, so a slow state machine backpressures the
//     bounded queue instead of the consensus path (real nodes), and a second
//     one writes checkpoints, so neither applies nor reads wait on a
//     serialisation or a disk.
//
// A checkpoint is cut under the lock in O(writes since the last one) — the
// state is flushed and frozen, the ordered window and scheduler bytes copied —
// and written from that frozen view off it: serialised, saved, cached as its
// encoded blob, announced to OnCheckpoint.
type Executor struct {
	mu  sync.Mutex
	sm  StateMachine
	cfg Config

	appliedRound types.Round  // guarded by mu
	appliedSeq   uint64       // guarded by mu
	stateRoot    types.Digest // guarded by mu
	// ordered is the boundary window: every ordered vertex with round in
	// (appliedRound-BoundaryRounds, appliedRound], exported into checkpoints
	// so installing committers resume with the exact ordered set. It stays
	// digest-addressed — a snapshot names vertices the installing node does
	// not hold yet — but is bucketed by round, so dropping what fell below
	// the boundary walks the window's rounds, not its vertices.
	ordered   map[types.Round][]OrderedRef // guarded by mu
	sinceCkpt uint64                       // guarded by mu
	ckptCount uint64                       // guarded by mu

	// schedState is the scheduler state attached to the last applied commit
	// (nil under the stateless round-robin baseline). It is embedded into
	// checkpoints and clamps the snapshot floor: the schedule's score scans
	// reach back to the active epoch start, which can lie below the boundary
	// window, and a restored node pruned past it would diverge.
	// schedStateBytes holds the still-encoded state of an installed snapshot
	// until the first post-install commit replaces it with a live export.
	schedState      leader.SchedulerState // guarded by mu
	schedStateBytes []byte                // guarded by mu

	// roots is a ring of recent (seq, root) pairs for cross-validator
	// convergence checks at a common sequence number, indexed by
	// seq % rootRingSize. It grows to that size with the commits applied: the
	// simulator runs fifty executors that see a few hundred commits each.
	roots []rootAt // guarded by mu

	// Checkpoints from cut to cache. pending is the one cut (or install)
	// waiting for the writer — a newer one replaces it — and writing the one
	// being written. latest/prev are the two newest written, kept as their
	// blobs: chunked serving never touches the store or re-encodes, and a peer
	// mid-fetch of the previous checkpoint can finish after we rotate.
	pending *ckpt // guarded by mu
	writing *ckpt // guarded by mu
	latest  *ckpt // guarded by mu
	prev    *ckpt // guarded by mu

	// certified is the newest quorum certificate attached to a checkpoint
	// whose frozen view this executor held, and certifiedKV that view: the
	// read state ProvenRead serves (both nil without Config.CheckpointCerts).
	// A frozen view shares the trie's nodes, and the live trie copies a node
	// the first time it writes one a view can reach, so every view held pins
	// up to a whole former generation of the trie — several times the
	// checkpoint's blob under write churn. Views of checkpoints older than
	// the certified one can never be promoted and are released.
	certified   *checkpoint.Certificate // guarded by mu
	certifiedKV *FrozenKV               // guarded by mu

	// writeMu is the writer's turn: one goroutine at a time serialises, saves
	// and announces checkpoints, so saves and OnCheckpoint calls go in commit
	// order. Taken before mu, never while holding it.
	writeMu sync.Mutex

	// Async mode. q and wake are made by Start: synchronous users (the
	// simulator's executors, replay tools, benchmarks) never pay for its
	// QueueDepth slots. wake hands parked checkpoint work to the checkpoint
	// goroutine.
	q       chan bullshark.CommittedSubDAG
	wake    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	started bool // guarded by mu

	appliedMetric *metrics.Gauge
	queueMetric   *metrics.Gauge
	snapBytes     *metrics.Counter
}

type rootAt struct {
	seq  uint64
	root types.Digest
}

// ckpt is one checkpoint on its way from cut to cache. snap holds the tuple
// and the side structures fixed at the cut; its Data is set only where the
// state was serialised then (a state machine that cannot freeze, an install)
// and dropped once blob exists. Executor.mu guards the fields below.
type ckpt struct {
	snap Snapshot
	// frozen is the state at the cut: what the writer serialises and, with
	// CheckpointCerts, what a certificate for this checkpoint promotes.
	frozen *FrozenKV
	// cert is the newest certificate attached to the checkpoint. blob is its
	// encoding as cached and saved, carrying blobCert; the certificate flag
	// starts at certAt, which is where a later certificate is sealed on.
	cert     *checkpoint.Certificate
	blob     []byte
	blobCert *checkpoint.Certificate
	certAt   int
}

// NewExecutor builds an executor over the given state machine.
func NewExecutor(sm StateMachine, cfg Config) *Executor {
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	if cfg.BoundaryRounds == 0 {
		cfg.BoundaryRounds = DefaultBoundaryRounds
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Store == nil {
		cfg.Store = NewMemoryStore()
	}
	x := &Executor{
		sm:      sm,
		cfg:     cfg,
		ordered: make(map[types.Round][]OrderedRef),
		done:    make(chan struct{}),
	}
	if cfg.Metrics != nil {
		x.appliedMetric = cfg.Metrics.Gauge("hammerhead_executor_applied_round")
		x.queueMetric = cfg.Metrics.Gauge("hammerhead_executor_queue_depth")
		x.snapBytes = cfg.Metrics.Counter("hammerhead_snapshot_bytes_total")
	}
	return x
}

// Store returns the executor's snapshot store.
func (x *Executor) Store() SnapshotStore { return x.cfg.Store }

// CheckpointCerts reports Config.CheckpointCerts: the engine certifies
// checkpoints exactly when its executor was built for it.
func (x *Executor) CheckpointCerts() bool { return x.cfg.CheckpointCerts }

// ---- synchronous core ----

// ApplyCommit applies one ordered sub-DAG. Commits at or below the applied
// sequence are skipped (WAL replay and snapshot installs make redeliveries
// normal). At the checkpoint interval it cuts a checkpoint and hands it on:
// to the checkpoint goroutine after Start, otherwise through the writer
// before returning. Safe for concurrent use, though a single delivering
// goroutine is the expected shape.
//
//hammerlint:deterministic
func (x *Executor) ApplyCommit(sub bullshark.CommittedSubDAG) {
	x.mu.Lock()
	if sub.Index <= x.appliedSeq {
		x.mu.Unlock()
		return
	}
	if sub.SchedulerState != nil {
		x.schedState = sub.SchedulerState
		x.schedStateBytes = nil
	}
	for _, v := range sub.Vertices {
		if v.Batch != nil {
			for i := range v.Batch.Transactions {
				x.sm.Apply(&v.Batch.Transactions[i])
			}
		}
		x.ordered[v.Round] = append(x.ordered[v.Round], OrderedRef{Digest: v.Digest(), Round: v.Round})
	}
	cd := commitDigest(&sub)
	x.stateRoot = types.HashBytes(x.stateRoot[:], cd[:])
	x.appliedSeq = sub.Index
	x.appliedRound = sub.Anchor.Round
	x.recordRootLocked()
	x.pruneOrderedLocked()
	if x.appliedMetric != nil {
		x.appliedMetric.Set(int64(x.appliedRound))
	}
	x.sinceCkpt++
	cut := false
	if x.sinceCkpt >= x.cfg.CheckpointInterval {
		// Checkpoint failures (disk full, ...) must not stall execution; the
		// next interval retries.
		if c, err := x.cutLocked(); err == nil {
			x.pending = c
			cut = true
		}
	}
	inline := !x.started
	x.mu.Unlock()
	if cut {
		x.handOff(inline)
	}
}

// recordRootLocked files the chained root under the applied sequence.
func (x *Executor) recordRootLocked() {
	i := int(x.appliedSeq % rootRingSize)
	if short := i + 1 - len(x.roots); short > 0 {
		x.roots = append(x.roots, make([]rootAt, short)...)
	}
	x.roots[i] = rootAt{seq: x.appliedSeq, root: x.stateRoot}
}

// commitDigest is the content address of one commit: sequence, anchor and the
// ordered vertex list. Chaining it per commit makes equal state roots at
// equal sequence numbers imply identical applied commit streams.
//
//hammerlint:deterministic
func commitDigest(sub *bullshark.CommittedSubDAG) types.Digest {
	parts := make([][]byte, 0, 2+len(sub.Vertices))
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], sub.Index)
	binary.BigEndian.PutUint64(hdr[8:], uint64(sub.Anchor.Round))
	parts = append(parts, hdr[:])
	anchor := sub.Anchor.Digest()
	parts = append(parts, anchor[:])
	for _, v := range sub.Vertices {
		d := v.Digest()
		parts = append(parts, d[:])
	}
	return types.HashBytes(parts...)
}

// CommitDigestOf exposes the commit content address to consumers outside the
// executor — the gateway stamps it on commit-stream events so read replicas
// can chain H(prev, digest) exactly like the executor does and cross-check
// the resulting root against quorum-certified checkpoints.
//
//hammerlint:deterministic
func CommitDigestOf(sub *bullshark.CommittedSubDAG) types.Digest {
	return commitDigest(sub)
}

// boundaryFloorLocked is the lowest round whose ordered status the window
// still records: (appliedRound - BoundaryRounds, appliedRound], clamped down
// to the scheduler state's retention floor when one rides along — an
// installed node's DAG is pruned to the snapshot floor, and the scheduler's
// epoch score scan must still find every retained round's vertices.
func (x *Executor) boundaryFloorLocked() types.Round {
	var floor types.Round
	if x.appliedRound >= x.cfg.BoundaryRounds {
		floor = x.appliedRound + 1 - x.cfg.BoundaryRounds
	}
	if x.schedState != nil {
		if m := x.schedState.MinRetainedRound(); m < floor {
			floor = m
		}
	}
	return floor
}

// pruneOrderedLocked drops ordered-window entries below the boundary.
func (x *Executor) pruneOrderedLocked() {
	floor := x.boundaryFloorLocked()
	if floor == 0 {
		return
	}
	for r := range x.ordered {
		if r < floor {
			delete(x.ordered, r)
		}
	}
}

// ---- status ----

// AppliedSeq returns the sequence number of the last applied commit.
func (x *Executor) AppliedSeq() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.appliedSeq
}

// AppliedRound returns the anchor round of the last applied commit.
func (x *Executor) AppliedRound() types.Round {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.appliedRound
}

// StateRoot returns the chained commit root at the applied sequence.
func (x *Executor) StateRoot() types.Digest {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.stateRoot
}

// StateDigest computes the state machine's content digest. For the built-in
// KVState that hashes every trie node written since the last checkpoint or
// StateDigest call — checkpoint cost, under the executor's lock; not a
// hot-path call.
func (x *Executor) StateDigest() types.Digest {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.sm.Root()
}

// RootAt returns the chained root as of the given commit sequence, if still
// retained (the executor keeps the most recent rootRingSize entries).
// Convergence checks compare two validators' roots at a common sequence.
func (x *Executor) RootAt(seq uint64) (types.Digest, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := int(seq % rootRingSize)
	if seq == 0 || i >= len(x.roots) || x.roots[i].seq != seq {
		return types.Digest{}, false
	}
	return x.roots[i].root, true
}

// KVRead is one consistent read against the executor's KV ledger: the value
// and write version under a key, plus the executor cursor — applied commit
// sequence, anchor round and chained state root — at the instant of the read.
// The cursor is what lets a client (or a cross-validator test) check that two
// reads at the same sequence came from identical applied histories.
type KVRead struct {
	Value      []byte
	Version    uint64
	Found      bool
	AppliedSeq uint64
	Round      types.Round
	StateRoot  types.Digest
}

// ReadKV serves the RPC gateway's GET /v1/kv path: a point read with its
// consistency cursor, taken atomically under the executor's lock so the value
// and the (seq, root) pair always belong to the same applied prefix. ok is
// false when the executor's state machine is not a KVState (a custom
// StateMachine has no generic read surface). Safe for concurrent use; the
// returned value slice is stable (an overwrite gives the entry a new slice;
// KVState never writes to the bytes of one it handed out).
func (x *Executor) ReadKV(key []byte) (KVRead, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	kv, ok := x.sm.(*KVState)
	if !ok {
		return KVRead{}, false
	}
	r := KVRead{
		AppliedSeq: x.appliedSeq,
		Round:      x.appliedRound,
		StateRoot:  x.stateRoot,
	}
	r.Value, r.Version, r.Found = kv.GetVersioned(key)
	return r, true
}

// SnapshotFloor returns the latest written checkpoint's retention floor (0
// when no checkpoint exists yet) — the round below which this node's WAL and
// DAG history are covered by a snapshot. Exposed on /v1/status.
func (x *Executor) SnapshotFloor() types.Round {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.latest == nil {
		return 0
	}
	return x.latest.snap.Floor
}

// Checkpoints returns how many checkpoints were written.
func (x *Executor) Checkpoints() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ckptCount
}

// ---- checkpoints ----

// ForceCheckpoint cuts a checkpoint at the current applied state regardless
// of the interval and writes it before returning (waiting out a write in
// progress). A cut still parked for the writer is older and is dropped.
func (x *Executor) ForceCheckpoint() (Snapshot, error) {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	x.mu.Lock()
	c, err := x.cutLocked()
	x.mu.Unlock()
	if err != nil {
		return Snapshot{}, err
	}
	return x.write(c)
}

// cutLocked takes a checkpoint of the applied state for the writer. Its cost
// is the writes since the last cut, not the state: the KV state is flushed
// and frozen (a custom state machine, which cannot freeze, is serialised
// here), and the ordered window and scheduler bytes are copied.
func (x *Executor) cutLocked() (*ckpt, error) {
	x.sinceCkpt = 0
	schedBytes := x.schedStateBytes
	if x.schedState != nil {
		var err error
		schedBytes, err = x.schedState.Encode()
		if err != nil {
			return nil, fmt.Errorf("execution: encoding scheduler state: %w", err)
		}
	}
	c := &ckpt{snap: Snapshot{
		Checkpoint: Checkpoint{
			Round:     x.appliedRound,
			CommitSeq: x.appliedSeq,
			StateRoot: x.stateRoot,
		},
		Floor:          x.boundaryFloorLocked(),
		SchedulerState: schedBytes,
	}}
	if kv, ok := x.sm.(*KVState); ok {
		c.frozen = kv.Freeze()
		c.snap.StateDigest = c.frozen.Root()
	} else {
		data, err := x.sm.Snapshot()
		if err != nil {
			return nil, err
		}
		c.snap.Data = data
		c.snap.StateDigest = x.sm.Root()
	}
	window := 0
	for _, bucket := range x.ordered {
		window += len(bucket)
	}
	refs := make([]OrderedRef, 0, window)
	for _, bucket := range x.ordered {
		refs = append(refs, bucket...)
	}
	sortOrderedRefs(refs)
	c.snap.Ordered = refs
	return c, nil
}

// handOff passes parked checkpoint work on: a wake-up for the checkpoint
// goroutine, or — for an executor that was never started, or is closing —
// the writer itself, on this goroutine.
func (x *Executor) handOff(inline bool) {
	if inline {
		x.drain()
		return
	}
	select {
	case x.wake <- struct{}{}:
	default: // a wake-up is already waiting; it covers this work too
	}
}

// drain takes the writer's turn and does what the lock parked: the waiting
// cut or install, then every certificate a cached blob does not carry yet.
func (x *Executor) drain() {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	for {
		x.mu.Lock()
		c := x.pending
		x.pending = nil
		x.mu.Unlock()
		if c != nil {
			// A failed write (disk full, ...) must not stall the writer; the
			// next interval cuts again.
			_, _ = x.write(c)
			continue
		}
		if !x.reseal() {
			return
		}
	}
}

// write serialises a checkpoint from its frozen view (unless it already has
// its bytes), seals in the certificate if one arrived meanwhile, saves it,
// caches it and announces it. A checkpoint a newer cached one has overtaken
// (an install, a forced checkpoint) is dropped unwritten. The caller holds
// writeMu.
func (x *Executor) write(c *ckpt) (Snapshot, error) {
	x.mu.Lock()
	stale := x.overtakenLocked(c)
	x.writing = c
	frozen, blob, cert := c.frozen, c.blob, c.blobCert
	x.mu.Unlock()
	if stale {
		return x.drop(c, ErrStaleSnapshot)
	}
	snap := c.snap
	cut := blob == nil // an install arrives encoded
	if cut {
		if frozen != nil {
			snap.Data = frozen.Snapshot()
		}
		x.mu.Lock()
		if !x.cfg.CheckpointCerts {
			// Nothing will promote the view: the live trie gets its nodes
			// back.
			x.releaseLocked(frozen)
			c.frozen = nil
		}
		cert = c.cert
		x.mu.Unlock()
		body := snapshotBody(snap)
		blob = sealSnapshot(body, cert)
		c.certAt = len(body)
	}
	if err := x.cfg.Store.Save(snap.CommitSeq, blob); err != nil {
		return x.drop(c, err)
	}
	x.mu.Lock()
	if x.overtakenLocked(c) {
		x.mu.Unlock()
		return x.drop(c, ErrStaleSnapshot)
	}
	x.writing = nil
	c.blob, c.blobCert = blob, cert
	c.snap.Data = nil
	x.cacheLocked(c)
	if cut {
		x.ckptCount++
	}
	x.mu.Unlock()
	if x.snapBytes != nil {
		x.snapBytes.Add(uint64(len(snap.Data)))
	}
	snap.Cert = cert
	if x.cfg.OnCheckpoint != nil {
		x.cfg.OnCheckpoint(snap)
	}
	return snap, nil
}

// overtakenLocked reports whether a newer checkpoint than c is already
// cached: writing c would replace it.
func (x *Executor) overtakenLocked(c *ckpt) bool {
	return x.latest != nil && x.latest.snap.CommitSeq > c.snap.CommitSeq
}

// drop abandons a checkpoint the writer could not or must not write.
func (x *Executor) drop(c *ckpt, err error) (Snapshot, error) {
	x.mu.Lock()
	if x.writing == c {
		x.writing = nil
	}
	if !x.cfg.CheckpointCerts {
		x.releaseLocked(c.frozen)
		c.frozen = nil
	}
	x.mu.Unlock()
	return Snapshot{}, err
}

// releaseLocked hands a frozen view back to the KV state (a no-op when a
// later cut froze it again or an install replaced it).
func (x *Executor) releaseLocked(f *FrozenKV) {
	if kv, ok := x.sm.(*KVState); ok && f != nil {
		kv.Release(f)
	}
}

// cacheLocked makes a written checkpoint the latest: the newest two stay
// servable, mirroring the store's default retention.
func (x *Executor) cacheLocked(c *ckpt) {
	if x.latest != nil && x.latest.snap.CommitSeq != c.snap.CommitSeq {
		x.prev = x.latest
	}
	x.latest = c
	x.releaseStaleViewsLocked()
}

// releaseStaleViewsLocked drops the frozen views of cached checkpoints older
// than the certified one: no certificate can promote them any more.
func (x *Executor) releaseStaleViewsLocked() {
	if x.certified == nil {
		return
	}
	for _, c := range []*ckpt{x.prev, x.latest} {
		if c != nil && c.snap.CommitSeq < x.certified.Meta.CommitSeq {
			c.frozen = nil
		}
	}
}

// reseal brings one cached checkpoint's blob up to its newest certificate
// and reports whether there was one to bring. The latest is saved again, so
// a restart finds it certified. The caller holds writeMu.
func (x *Executor) reseal() bool {
	x.mu.Lock()
	var c *ckpt
	for _, r := range []*ckpt{x.latest, x.prev} {
		if r != nil && r.cert != r.blobCert {
			c = r
			break
		}
	}
	if c == nil {
		x.mu.Unlock()
		return false
	}
	cert, body, save := c.cert, c.blob[:c.certAt:c.certAt], c == x.latest
	x.mu.Unlock()
	blob := sealSnapshot(body, cert)
	if save {
		// On failure the store keeps the uncertified copy of the same
		// checkpoint: still installable locally, only not servable as
		// certified after a restart.
		_ = x.cfg.Store.Save(c.snap.CommitSeq, blob)
	}
	x.mu.Lock()
	c.blob, c.blobCert = blob, cert
	x.mu.Unlock()
	return true
}

// Install replaces the executor's state with a verified snapshot: the state
// machine is restored from the snapshot bytes and its content digest is
// recomputed — a mismatch (corrupted or forged chunk) rolls the previous
// state back and rejects the install. On success the snapshot becomes the
// latest cached checkpoint at once and is handed to the writer, which saves
// it to the local store, so the node can serve it onward and survive
// restarts.
func (x *Executor) Install(snap Snapshot) error {
	body := snapshotBody(snap)
	c := &ckpt{snap: snap, cert: snap.Cert, blobCert: snap.Cert, certAt: len(body)}
	c.blob = sealSnapshot(body, snap.Cert)
	c.snap.Data, c.snap.Cert = nil, nil

	x.mu.Lock()
	if snap.CommitSeq <= x.appliedSeq {
		x.mu.Unlock()
		return ErrStaleSnapshot
	}
	prev, err := x.sm.Snapshot()
	if err != nil {
		x.mu.Unlock()
		return fmt.Errorf("execution: preserving state for install: %w", err)
	}
	if err := x.sm.Restore(snap.Data); err != nil {
		x.mu.Unlock()
		return fmt.Errorf("execution: restoring snapshot: %w", err)
	}
	if got := x.sm.Root(); got != snap.StateDigest {
		_ = x.sm.Restore(prev)
		x.mu.Unlock()
		return fmt.Errorf("execution: snapshot state digest mismatch: recomputed %s, checkpoint %s",
			got, snap.StateDigest)
	}
	x.appliedSeq = snap.CommitSeq
	x.appliedRound = snap.Round
	x.stateRoot = snap.StateRoot
	x.ordered = make(map[types.Round][]OrderedRef)
	seen := make(map[types.Digest]struct{}, len(snap.Ordered))
	for _, ref := range snap.Ordered {
		if _, dup := seen[ref.Digest]; dup {
			continue // a window lists a vertex once
		}
		seen[ref.Digest] = struct{}{}
		x.ordered[ref.Round] = append(x.ordered[ref.Round], ref)
	}
	clear(x.roots)
	x.recordRootLocked()
	x.sinceCkpt = 0
	// Carry the snapshot's scheduler state forward still-encoded: re-saves of
	// this checkpoint keep serving it, and the first post-install commit
	// replaces it with a live export.
	x.schedState = nil
	x.schedStateBytes = snap.SchedulerState
	if x.appliedMetric != nil {
		x.appliedMetric.Set(int64(x.appliedRound))
	}
	if x.snapBytes != nil {
		x.snapBytes.Add(uint64(len(snap.Data)))
	}
	if kv, ok := x.sm.(*KVState); ok && x.cfg.CheckpointCerts {
		c.frozen = kv.Freeze()
		if snap.Cert != nil {
			// An installed snapshot arrives pre-certified: its frozen view is
			// immediately servable for proof-carrying reads.
			x.certified = snap.Cert
			x.certifiedKV = c.frozen
		}
	}
	// A cut still parked is older than the install; the writer saves this
	// instead.
	x.pending = c
	x.cacheLocked(c)
	inline := !x.started
	x.mu.Unlock()
	x.handOff(inline)
	return nil
}

// AttachCertificate binds a quorum checkpoint certificate to the checkpoint
// at the given commit seq — cached, being written, or cut and waiting — and
// returns at once: the checkpoint's frozen view becomes the certified state
// ProvenRead serves, and the writer reseals the checkpoint's blob with the
// certificate embedded (so wire serving and restarts carry it), or writes it
// in with the checkpoint if that is not written yet. Certificates for
// checkpoints no longer held are ignored (false). The caller must have
// verified the certificate — the executor stores, not vets, it.
func (x *Executor) AttachCertificate(seq uint64, cert *checkpoint.Certificate) bool {
	if cert == nil {
		return false
	}
	x.mu.Lock()
	var c *ckpt
	for _, r := range []*ckpt{x.latest, x.prev, x.writing, x.pending} {
		if r != nil && r.snap.CommitSeq == seq {
			c = r
			break
		}
	}
	if c == nil {
		x.mu.Unlock()
		return false
	}
	c.cert = cert
	// The view is promoted when the checkpoint is newer than the certified
	// one, or is the latest (a second certificate for it replaces the
	// first); a view older than the certified one was released already.
	// Without CheckpointCerts a cut's view lives only while it is written and
	// then goes back to the live trie: it must never become a read state.
	if x.cfg.CheckpointCerts && c.frozen != nil && (x.certified == nil || seq > x.certified.Meta.CommitSeq || c == x.latest) {
		x.certified, x.certifiedKV = cert, c.frozen
		x.releaseStaleViewsLocked()
	}
	inline := !x.started
	x.mu.Unlock()
	x.handOff(inline)
	return true
}

// CertifiedSnapshotBlob returns the wire encoding of the newest cached
// checkpoint whose blob carries a quorum certificate (false before one
// exists). Served on the gateway's /v1/snapshot so replicas bootstrap from
// certified state instead of trusting the responder.
func (x *Executor) CertifiedSnapshotBlob() ([]byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range []*ckpt{x.latest, x.prev} {
		if c != nil && c.blobCert != nil {
			return c.blob, true
		}
	}
	return nil, false
}

// LatestCertificate returns the newest quorum checkpoint certificate this
// executor holds (nil, false before the first certification completes).
// Served on the gateway's /v1/checkpoint for replicas and auditors.
func (x *Executor) LatestCertificate() (*checkpoint.Certificate, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.certified == nil {
		return nil, false
	}
	return x.certified, true
}

// ProvenKV is a proof-carrying read: a Merkle inclusion/exclusion proof for
// the key against the last CERTIFIED checkpoint's state, the op counters that
// bind the Merkle root into the certified StateDigest, and the quorum
// certificate itself. A verifier needs no trust in the serving node: fold the
// proof to a root, combine with the counters (StateDigestFrom) and compare
// against the certificate's StateDigest after checking its 2f+1 signatures.
type ProvenKV struct {
	Proof   merkle.Proof
	Version uint64
	Opaque  uint64
	Cert    *checkpoint.Certificate
}

// ProvenRead serves a proof-carrying read against the last certified
// checkpoint. ok is false until a certificate has been attached (or when the
// state machine is not a KVState). The read lags the live state by up to one
// checkpoint interval plus certification gossip — the price of serving only
// quorum-certified answers.
func (x *Executor) ProvenRead(key []byte) (ProvenKV, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.certified == nil || x.certifiedKV == nil {
		return ProvenKV{}, false
	}
	version, opaque := x.certifiedKV.Counters()
	return ProvenKV{
		Proof:   x.certifiedKV.Prove(key),
		Version: version,
		Opaque:  opaque,
		Cert:    x.certified,
	}, true
}

// ---- asynchronous mode ----

// Start makes the commit queue and spawns the executor's apply and
// checkpoint goroutines. Must be called once, before the first Submit and
// before any goroutine that submits is started.
func (x *Executor) Start() {
	x.mu.Lock()
	if x.started {
		x.mu.Unlock()
		return
	}
	x.started = true
	x.q = make(chan bullshark.CommittedSubDAG, x.cfg.QueueDepth)
	x.wake = make(chan struct{}, 1)
	x.mu.Unlock()
	x.wg.Add(2)
	go x.loop()
	go x.writeLoop()
}

// Submit enqueues a commit for the apply goroutine. Blocks when the queue is
// full (backpressure on the commit stream); drops the commit when the
// executor is closed (the WAL re-derives it on restart). Start comes first,
// as it always had to: an executor that was never started has no queue, so
// Submit blocks until Close and then drops the commit.
//
//hammerlint:nonblocking
func (x *Executor) Submit(sub bullshark.CommittedSubDAG) {
	select {
	case x.q <- sub:
		if x.queueMetric != nil {
			x.queueMetric.Set(int64(len(x.q)))
		}
	case <-x.done:
	}
}

// QueueDepth returns the current async queue occupancy (0 before Start).
func (x *Executor) QueueDepth() int { return len(x.q) }

func (x *Executor) loop() {
	defer x.wg.Done()
	for {
		select {
		case sub := <-x.q:
			if x.queueMetric != nil {
				x.queueMetric.Set(int64(len(x.q)))
			}
			x.ApplyCommit(sub)
			if x.cfg.OnApplied != nil {
				x.cfg.OnApplied(sub)
			}
		case <-x.done:
			// Drain what the commit loop already queued, then stop.
			for {
				select {
				case sub := <-x.q:
					x.ApplyCommit(sub)
					if x.cfg.OnApplied != nil {
						x.cfg.OnApplied(sub)
					}
				default:
					return
				}
			}
		}
	}
}

// writeLoop is the checkpoint goroutine: it writes what ApplyCommit, Install
// and AttachCertificate park, until Close.
func (x *Executor) writeLoop() {
	defer x.wg.Done()
	for {
		select {
		case <-x.wake:
			x.drain()
		case <-x.done:
			return
		}
	}
}

// Close stops the apply and checkpoint goroutines after draining queued
// commits, writes what they left parked, and cuts a final checkpoint so a
// restart resumes from the freshest possible state. Idempotent;
// synchronous-mode users may skip it.
func (x *Executor) Close() {
	x.mu.Lock()
	started := x.started
	x.started = false
	x.mu.Unlock()
	select {
	case <-x.done:
		return
	default:
	}
	close(x.done)
	if started {
		x.wg.Wait()
	}
	x.mu.Lock()
	if x.appliedSeq > 0 && x.sinceCkpt > 0 {
		if c, err := x.cutLocked(); err == nil {
			x.pending = c
		}
	}
	x.mu.Unlock()
	x.drain()
}
