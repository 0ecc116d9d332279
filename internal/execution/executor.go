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
	// OnCheckpoint, when non-nil, observes every checkpoint successfully
	// persisted to the store (periodic, forced, final-on-close and installed
	// ones alike). The node hangs checkpoint-driven WAL compaction here: the
	// snapshot's Floor is the round below which the WAL no longer needs to
	// replay. Called with the executor's lock held — the hook must not call
	// back into the executor; hand off to another goroutine for real work.
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
	// later retry) is tried. And every checkpoint captures a frozen view of
	// the KV state for AttachCertificate to promote and ProvenRead to prove
	// against; without certification nothing reads such a view, so none is
	// captured and the live trie goes on writing its nodes in place.
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
//     (the discrete-event simulator, benchmarks, trace replay).
//   - Asynchronous: call Start once, then Submit from the commit stream; a
//     dedicated goroutine applies, so a slow state machine backpressures the
//     bounded queue instead of the consensus path (real nodes).
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

	// latest/prev cache the two newest checkpoints in memory so chunked
	// serving never touches the store per chunk request (the file store
	// would re-read and re-decode the whole snapshot each time), and so a
	// peer mid-fetch of the previous checkpoint can finish after we rotate;
	// served caches their wire encodings keyed by commit sequence.
	latest     Snapshot          // guarded by mu
	haveLatest bool              // guarded by mu
	prev       Snapshot          // guarded by mu
	havePrev   bool              // guarded by mu
	served     map[uint64][]byte // guarded by mu

	// frozenLatest/frozenPrev are immutable KV views captured at the two
	// cached checkpoints, waiting for their quorum certificates (nil without
	// Config.CheckpointCerts, or when the state machine is not a KVState).
	// Capturing shares the trie's nodes (the checkpoint's StateDigest has
	// just flushed their hashes); the live trie copies a node the first time
	// it writes one a frozen view can reach, so every view held pins up to a
	// whole former generation of the trie — several times the checkpoint's
	// blob under write churn. Once a checkpoint's certificate arrives
	// (AttachCertificate), its view becomes certifiedKV, the read state
	// ProvenRead serves proofs from, and the views of older checkpoints are
	// released: frozenPrev is non-nil only while the latest checkpoint is
	// still uncertified.
	frozenLatest *FrozenKV               // guarded by mu
	frozenPrev   *FrozenKV               // guarded by mu
	certified    *checkpoint.Certificate // guarded by mu
	certifiedKV  *FrozenKV               // guarded by mu

	// Async mode. q is made by Start: synchronous users (the simulator's
	// executors, replay tools, benchmarks) never pay for its QueueDepth slots.
	q       chan bullshark.CommittedSubDAG
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
		served:  make(map[uint64][]byte),
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
// normal). Safe for concurrent use, though a single delivering goroutine is
// the expected shape.
//
//hammerlint:deterministic
func (x *Executor) ApplyCommit(sub bullshark.CommittedSubDAG) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if sub.Index <= x.appliedSeq {
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
	if x.sinceCkpt >= x.cfg.CheckpointInterval {
		// Checkpoint failures (disk full, ...) must not stall execution; the
		// next interval retries.
		_, _ = x.checkpointLocked()
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

// SnapshotFloor returns the latest persisted checkpoint's retention floor (0
// when no checkpoint exists yet) — the round below which this node's WAL and
// DAG history are covered by a snapshot. Exposed on /v1/status.
func (x *Executor) SnapshotFloor() types.Round {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.haveLatest {
		return 0
	}
	return x.latest.Floor
}

// Checkpoints returns how many checkpoints were cut.
func (x *Executor) Checkpoints() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ckptCount
}

// ---- checkpoints ----

// ForceCheckpoint cuts a checkpoint at the current applied state regardless
// of the interval and persists it to the store.
func (x *Executor) ForceCheckpoint() (Snapshot, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.checkpointLocked()
}

func (x *Executor) checkpointLocked() (Snapshot, error) {
	x.sinceCkpt = 0
	data, err := x.sm.Snapshot()
	if err != nil {
		return Snapshot{}, err
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
	schedBytes := x.schedStateBytes
	if x.schedState != nil {
		schedBytes, err = x.schedState.Encode()
		if err != nil {
			return Snapshot{}, fmt.Errorf("execution: encoding scheduler state: %w", err)
		}
	}
	snap := Snapshot{
		Checkpoint: Checkpoint{
			Round:       x.appliedRound,
			CommitSeq:   x.appliedSeq,
			StateRoot:   x.stateRoot,
			StateDigest: x.sm.Root(),
		},
		Floor:          x.boundaryFloorLocked(),
		Ordered:        refs,
		Data:           data,
		SchedulerState: schedBytes,
	}
	if err := x.cfg.Store.Save(snap); err != nil {
		return Snapshot{}, err
	}
	x.cacheSnapshotLocked(snap, x.freezeKVLocked())
	x.ckptCount++
	if x.snapBytes != nil {
		x.snapBytes.Add(uint64(len(data)))
	}
	if x.cfg.OnCheckpoint != nil {
		x.cfg.OnCheckpoint(snap)
	}
	return snap, nil
}

// Install replaces the executor's state with a verified snapshot: the state
// machine is restored from the snapshot bytes and its content digest is
// recomputed — a mismatch (corrupted or forged chunk) rolls the previous
// state back and rejects the install. On success the snapshot is persisted
// to the local store, so the node can serve it onward and survive restarts.
func (x *Executor) Install(snap Snapshot) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if snap.CommitSeq <= x.appliedSeq {
		return ErrStaleSnapshot
	}
	prev, err := x.sm.Snapshot()
	if err != nil {
		return fmt.Errorf("execution: preserving state for install: %w", err)
	}
	if err := x.sm.Restore(snap.Data); err != nil {
		return fmt.Errorf("execution: restoring snapshot: %w", err)
	}
	if got := x.sm.Root(); got != snap.StateDigest {
		_ = x.sm.Restore(prev)
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
	frozen := x.freezeKVLocked()
	x.cacheSnapshotLocked(snap, frozen)
	if snap.Cert != nil && frozen != nil {
		// An installed snapshot arrives pre-certified: its frozen view is
		// immediately servable for proof-carrying reads.
		x.certified = snap.Cert
		x.certifiedKV = frozen
		x.frozenPrev = nil
	}
	if err := x.cfg.Store.Save(snap); err == nil && x.cfg.OnCheckpoint != nil {
		x.cfg.OnCheckpoint(snap)
	}
	return nil
}

// freezeKVLocked captures an immutable view of the state machine when
// certification is on and the machine is the built-in KVState (nil otherwise
// — no certificate will ever promote the view, or a custom machine has no
// generic proof surface).
func (x *Executor) freezeKVLocked() *FrozenKV {
	if kv, ok := x.sm.(*KVState); ok && x.cfg.CheckpointCerts {
		return kv.Freeze()
	}
	return nil
}

// cacheSnapshotLocked rotates the in-memory checkpoint cache: the newest two
// stay servable (mirroring the store's default retention) and stale wire
// encodings are dropped. frozen is the immutable KV view captured at the
// snapshot (nil unless freezeKVLocked captures one); it rotates with the
// snapshot.
func (x *Executor) cacheSnapshotLocked(snap Snapshot, frozen *FrozenKV) {
	if x.haveLatest && x.latest.CommitSeq != snap.CommitSeq {
		x.prev = x.latest
		x.havePrev = true
		x.frozenPrev = x.frozenLatest
	}
	x.latest = snap
	x.haveLatest = true
	x.frozenLatest = frozen
	for seq := range x.served {
		if seq != x.latest.CommitSeq && (!x.havePrev || seq != x.prev.CommitSeq) {
			delete(x.served, seq)
		}
	}
}

// AttachCertificate binds a quorum checkpoint certificate to the cached
// checkpoint at the given commit seq: the snapshot re-persists with the
// certificate embedded (so wire serving and restarts carry it), and the
// checkpoint's frozen KV view becomes the certified state ProvenRead serves.
// Certificates for rotated-out checkpoints are ignored (false). The caller
// must have verified the certificate — the executor stores, not vets, it.
func (x *Executor) AttachCertificate(seq uint64, cert *checkpoint.Certificate) bool {
	if cert == nil {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	switch {
	case x.haveLatest && x.latest.CommitSeq == seq:
		x.latest.Cert = cert
		delete(x.served, seq)
		_ = x.cfg.Store.Save(x.latest)
		if x.frozenLatest != nil {
			x.certified = cert
			x.certifiedKV = x.frozenLatest
			x.frozenPrev = nil
		}
		return true
	case x.havePrev && x.prev.CommitSeq == seq:
		x.prev.Cert = cert
		delete(x.served, seq)
		if x.frozenPrev != nil && (x.certified == nil || x.certified.Meta.CommitSeq < seq) {
			x.certified = cert
			x.certifiedKV = x.frozenPrev
		}
		return true
	}
	return false
}

// CertifiedSnapshotBlob returns the wire encoding of the newest cached
// checkpoint that carries a quorum certificate (false before one exists).
// Served on the gateway's /v1/snapshot so replicas bootstrap from certified
// state instead of trusting the responder.
func (x *Executor) CertifiedSnapshotBlob() ([]byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.haveLatest && x.latest.Cert != nil {
		if _, blob, ok := x.serveLocked(x.latest); ok {
			return blob, true
		}
	}
	if x.havePrev && x.prev.Cert != nil {
		if _, blob, ok := x.serveLocked(x.prev); ok {
			return blob, true
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

// Start makes the commit queue and spawns the executor's apply goroutine.
// Must be called once, before the first Submit and before any goroutine that
// submits is started.
func (x *Executor) Start() {
	x.mu.Lock()
	if x.started {
		x.mu.Unlock()
		return
	}
	x.started = true
	x.q = make(chan bullshark.CommittedSubDAG, x.cfg.QueueDepth)
	x.mu.Unlock()
	x.wg.Add(1)
	go x.loop()
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

// Close stops the apply goroutine after draining queued commits and cuts a
// final checkpoint so a restart resumes from the freshest possible state.
// Idempotent; synchronous-mode users may skip it.
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
		_, _ = x.checkpointLocked()
	}
	x.mu.Unlock()
}
