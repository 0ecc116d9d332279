// Package node runs the HammerHead validator on a real runtime: goroutines,
// wall-clock timers, pluggable transports (in-process channels or TCP), WAL
// persistence with crash-recovery, and metrics. It assembles and recovers the
// validator through internal/validator, exactly as the simulator does — the
// protocol logic is shared line for line.
package node

import (
	"encoding/hex"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/mempool"
	"hammerhead/internal/metrics"
	"hammerhead/internal/obs"
	"hammerhead/internal/rpc"
	"hammerhead/internal/storage"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
	"hammerhead/internal/validator"
)

// CommitHandler receives committed sub-DAGs in order. Replayed is true for
// commits re-derived from the WAL during recovery, so executors that already
// applied them before the crash can deduplicate.
type CommitHandler func(sub bullshark.CommittedSubDAG, replayed bool)

// Config assembles a validator node.
type Config struct {
	Committee *types.Committee
	Self      types.ValidatorID
	// Keys signs protocol messages; PublicKeys verifies peers (indexed by
	// validator ID).
	Keys       crypto.KeyPair
	PublicKeys []crypto.PublicKey
	// Engine is the protocol configuration.
	Engine engine.Config
	// HammerHead, when non-nil, enables reputation scheduling with the given
	// configuration; nil runs the round-robin baseline.
	HammerHead *core.Config
	// ScheduleSeed seeds the initial schedule permutation (must match across
	// the committee).
	ScheduleSeed uint64
	// WALPath, when non-empty, enables persistence and crash-recovery.
	WALPath string
	// MempoolSize bounds the transaction pool (default 1<<20).
	MempoolSize int
	// MempoolLanes is the fair-admission lane count: client IDs arriving
	// through the RPC gateway hash onto lanes, each with its own capacity
	// share of MempoolSize, so one saturating client cannot starve the
	// others' admission. <= 1 keeps a single lane (the node's own Submit
	// path always uses lane 0).
	MempoolLanes int
	// RPCAddr, when non-empty, serves the client gateway (HTTP/JSON: tx
	// submission, KV reads, commit streaming, status) on this address.
	// ":0" binds an ephemeral port — read it back via Gateway().Addr().
	RPCAddr string
	// OnCommit receives ordered sub-DAGs (may be nil).
	OnCommit CommitHandler
	// Execution enables the execution subsystem: a deterministic state
	// machine (execution.KVState) consumes the commit stream on its own
	// goroutine, cuts periodic checkpoints, serves them to state-syncing
	// peers, and lets THIS node recover via snapshot install when it falls
	// beyond the committee's GC horizon. Checkpoints carry the scheduler's
	// state, so the recovery paths work identically under the round-robin
	// baseline and HammerHead's reputation scheduler.
	Execution bool
	// CheckpointInterval is the number of commits between checkpoints
	// (0 = execution.DefaultCheckpointInterval). Ignored without Execution.
	CheckpointInterval uint64
	// CheckpointCerts enables quorum checkpoint certification: after each
	// checkpoint this validator signs the (round, seq, state root, state
	// digest, scheduler digest) tuple and gossips the signature; 2f+1 shares
	// assemble into a certificate that is embedded into the served snapshot
	// and exposed to clients (proof-carrying reads, read replicas). With it
	// on, REMOTE snapshot installs require a valid certificate — the node no
	// longer trusts the responder's bytes. Requires Execution and the full
	// PublicKeys set. Ignored without Execution.
	CheckpointCerts bool
	// SnapshotDir persists checkpoints for crash-recovery and serving
	// (empty = in-memory only). Ignored without Execution.
	SnapshotDir string
	// Metrics, when non-nil, receives node counters.
	Metrics *metrics.Registry
	// Trace enables commit-path transaction tracing: every accepted tx ID
	// accrues one wall-clock timestamp per lifecycle stage (admitted →
	// proposed → cert_formed → ordered → durable → streamed → applied),
	// served on GET /v1/trace/{txid} and fed into the
	// hammerhead_stage_latency_seconds histograms when Metrics is set.
	// Recording is lock-sharded and allocation-lean (see internal/obs);
	// replayed commits record nothing, so a recovered node never fabricates
	// pre-crash timestamps.
	Trace bool
	// TraceSlots bounds the retained traces, FIFO-evicted
	// (0 = obs.DefaultSlots). Ignored without Trace.
	TraceSlots int
	// DebugAddr, when non-empty, serves the debug surface — net/http/pprof
	// plus a runtime/metrics snapshot on /debug/runtime — on its OWN
	// listener, never on the public RPC mux. ":0" binds an ephemeral port;
	// read it back via DebugAddr(). Off by default.
	DebugAddr string
	// Logger, when non-nil, receives structured component logs (slog). Nil
	// keeps the node silent; library code never branches on it (a nop
	// logger substitutes).
	Logger *slog.Logger
}

// Node is a running validator.
type Node struct {
	cfg Config
	// v is the assembled validator; eng, pool and exec are its parts.
	v    *validator.Validator
	eng  *engine.Engine
	pool *mempool.FairPool
	// trans is the transport Start was handed (nil before Start).
	trans transport.Transport
	// walw is the WAL writer (nil without Config.WALPath).
	walw *walWriter
	// gw is the embedded client gateway (nil without Config.RPCAddr): it
	// feeds client submissions into the pool's fair-admission lanes and
	// observes the commit stream for SSE subscribers.
	gw *rpc.Gateway
	// exec is the execution subsystem (nil when Config.Execution is off):
	// commits fan out to it from the commit loop, it applies them on its own
	// goroutine and owns checkpointing and snapshot install.
	exec *execution.Executor
	// tracer is the commit-path trace collector (nil without Config.Trace;
	// the nil tracer is inert, so record sites need no branches).
	tracer *obs.Tracer
	// debug is the pprof + runtime/metrics listener (nil without
	// Config.DebugAddr).
	debug *debugServer
	// logger is the structured component logger (never nil; a nop handler
	// substitutes when Config.Logger is unset).
	logger *slog.Logger

	// Pre-verify stage: inbound signature-bearing messages are validated by
	// one goroutine per CPU pulling from preq, off the engine loop, before
	// being enqueued into the single-threaded state machine. Nil prever
	// disables the stage (signature verification off).
	prever *engine.PreVerifier
	preq   chan inbound

	// Commit delivery runs on its own goroutine: the engine's CommitSink
	// enqueues ordered sub-DAGs here and commitLoop hands them to the
	// configured handler, so a slow executor backpressures the (bounded)
	// queue instead of stalling the engine or the order stage directly.
	// replaying is set until recovery goes live: commits are delivered
	// synchronously and flagged replayed, and nothing is written to the WAL.
	commitq   chan commitDelivery
	commitWg  sync.WaitGroup
	replaying atomic.Bool

	// Thread-safe status mirror for the gateway's /v1/status: the engine is
	// owned by the loop goroutine, so dispatch and commit delivery publish
	// the fields HTTP handlers read.
	statusRound     atomic.Uint64
	statusOrdered   atomic.Uint64
	statusRejoining atomic.Bool
	// The rest of Counters: engine counters published by dispatch, committer
	// counters by the commit sink.
	statusTimeouts         atomic.Uint64
	statusSnapshotInstalls atomic.Uint64
	statusFullEarly        atomic.Uint64
	statusCommitter        atomic.Pointer[bullshark.Stats]
	// lostVertices is the engine's OwnVerticesPrunedUnordered as of the last
	// dispatch (loop goroutine only): a rise is logged.
	lostVertices uint64
	// schedState mirrors the scheduler's latest exported state (HammerHead
	// only): commit delivery publishes the immutable ManagerState each commit
	// carries, and /v1/status plus the hammerhead_schedule_* gauges read it
	// without touching the engine-owned scheduler. rrSched is the round-robin
	// fallback (its schedule is immutable, so concurrent reads are safe).
	schedState atomic.Pointer[core.ManagerState]
	rrSched    *leader.RoundRobin

	tasks   chan func()
	done    chan struct{}
	wg      sync.WaitGroup
	startMu sync.Mutex
	started bool // guarded by startMu
	closed  bool // guarded by startMu

	commitsMetric   *metrics.Counter
	txsMetric       *metrics.Counter
	roundMetric     *metrics.Gauge
	dagFloorMetric  *metrics.Gauge
	dagVertsMetric  *metrics.Gauge
	queueMetric     *metrics.Gauge
	droppedMetric   *metrics.Counter
	batchHist       *metrics.Histogram
	pipelineMetric  *metrics.Gauge
	commitQMetric   *metrics.Gauge
	epochMetric     *metrics.Gauge
	epochStartMet   *metrics.Gauge
	leaderMetric    *metrics.Gauge
	excludedMetric  *metrics.Gauge
	abandonedMetric *metrics.Counter
	carriedMetric   *metrics.Counter
	fullEarlyMetric *metrics.Counter
	lostMetric      *metrics.Counter
}

// inbound is one transport delivery awaiting pre-verification.
type inbound struct {
	from types.ValidatorID
	msg  *engine.Message
}

// commitDelivery is one fresh ordered sub-DAG awaiting the commit handler
// (replayed ones are delivered synchronously). walSeq is the durability
// watermark the delivery waits for (0 when the node runs without a WAL).
type commitDelivery struct {
	sub    bullshark.CommittedSubDAG
	walSeq uint64
}

// New builds a node: the validator, its gateway and debug listeners bound,
// nothing running yet. Messages handed to HandleMessage before Start are held
// until Start has recovered the node, backpressuring the transport once the
// queues fill. The returned node owns the WAL (if configured).
func New(cfg Config) (*Node, error) {
	n := &Node{
		cfg:     cfg,
		logger:  obs.WithValidator(obs.Component(cfg.Logger, "node"), uint64(cfg.Self)),
		tasks:   make(chan func(), 4096),
		done:    make(chan struct{}),
		commitq: make(chan commitDelivery, 1024),
	}
	if cfg.Trace {
		n.tracer = obs.NewTracer(cfg.TraceSlots, cfg.Metrics)
	}
	if cfg.WALPath != "" {
		n.walw = newWALWriter(cfg.WALPath, cfg.Metrics, n.logger, &n.replaying, n.done)
		// Until Start finishes recovery and goes live, inserted certificates
		// are not appended and commits are delivered flagged replayed.
		n.replaying.Store(true)
	}
	vcfg := validator.Config{
		Committee:    cfg.Committee,
		Self:         cfg.Self,
		Keys:         cfg.Keys,
		PublicKeys:   cfg.PublicKeys,
		Engine:       cfg.Engine,
		HammerHead:   cfg.HammerHead,
		ScheduleSeed: cfg.ScheduleSeed,
		Mempool: mempool.FairConfig{
			MaxSize: cfg.MempoolSize,
			Lanes:   cfg.MempoolLanes,
		},
		Commits:  engine.CommitSinkFunc(n.sinkCommit),
		Observer: observer{n},
	}
	if n.tracer != nil {
		// The admitted stage starts a trace; tx ID 0 means "gateway will
		// assign one later" on some paths, so it never gets a trace entry.
		vcfg.Mempool.OnAdmit = func(tx types.Transaction) {
			if tx.ID != 0 {
				n.tracer.Record(obs.StageAdmitted, tx.ID)
			}
		}
	}
	if cfg.Execution {
		xc, err := n.executionConfig()
		if err != nil {
			return nil, err
		}
		vcfg.Execution = xc
	}
	v, err := validator.New(vcfg)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n.v, n.eng, n.pool, n.exec = v, v.Engine, v.Pool, v.Executor
	// Seed the scheduler status mirror so /v1/status reports the initial
	// schedule before the first commit publishes an export.
	switch sched := n.eng.Scheduler().(type) {
	case *core.Manager:
		n.schedState.Store(sched.ExportState().(*core.ManagerState))
	case *leader.RoundRobin:
		n.rrSched = sched
	}
	if cfg.Engine.VerifySignatures {
		n.prever = engine.NewPreVerifier(cfg.Keys.Scheme, cfg.Committee, cfg.PublicKeys)
		n.preq = make(chan inbound, 4096)
	}
	if cfg.Metrics != nil {
		n.commitsMetric = cfg.Metrics.Counter("hammerhead_commits_total")
		n.txsMetric = cfg.Metrics.Counter("hammerhead_committed_txs_total")
		n.roundMetric = cfg.Metrics.Gauge("hammerhead_round")
		n.dagFloorMetric = cfg.Metrics.Gauge("hammerhead_dag_floor_round")
		n.dagVertsMetric = cfg.Metrics.Gauge("hammerhead_dag_vertices")
		n.queueMetric = cfg.Metrics.Gauge("hammerhead_verify_queue_depth")
		n.droppedMetric = cfg.Metrics.Counter("hammerhead_preverify_dropped_total")
		// Signatures per pre-verified message (a certificate carries its
		// quorum of votes).
		n.batchHist = cfg.Metrics.Histogram("hammerhead_verify_batch_size",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128})
		n.pipelineMetric = cfg.Metrics.Gauge("hammerhead_pipeline_depth")
		n.commitQMetric = cfg.Metrics.Gauge("hammerhead_commit_queue_depth")
		n.epochMetric = cfg.Metrics.Gauge("hammerhead_schedule_epoch")
		n.epochStartMet = cfg.Metrics.Gauge("hammerhead_schedule_start_round")
		n.leaderMetric = cfg.Metrics.Gauge("hammerhead_current_leader")
		n.excludedMetric = cfg.Metrics.Gauge("hammerhead_excluded_validators")
		n.abandonedMetric = cfg.Metrics.Counter("hammerhead_headers_abandoned_total")
		n.carriedMetric = cfg.Metrics.Counter("hammerhead_tx_carried_total")
		n.fullEarlyMetric = cfg.Metrics.Counter("hammerhead_headers_full_early_total")
		n.lostMetric = cfg.Metrics.Counter("hammerhead_own_vertices_pruned_unordered_total")
		if st := n.schedState.Load(); st != nil {
			n.publishSchedulerState(st)
		}
	}
	if cfg.RPCAddr != "" {
		gwCfg := rpc.Config{
			Addr:      cfg.RPCAddr,
			Validator: cfg.Self,
			Submit:    n.SubmitClient,
			Lane:      n.pool.LaneFor,
			LaneStats: n.pool.LaneStats,
			Status:    n.statusSnapshot,
			Metrics:   cfg.Metrics,
		}
		if n.tracer != nil {
			gwCfg.Trace = n.traceResponse
		}
		if n.exec != nil {
			gwCfg.ReadKV = n.exec.ReadKV
			gwCfg.RootAt = n.exec.RootAt
			if cfg.CheckpointCerts {
				// The trustless read tier: proof-carrying reads against the
				// last certified checkpoint, the certificate itself, and the
				// certified snapshot blob replicas bootstrap from.
				gwCfg.ProvenRead = n.exec.ProvenRead
				gwCfg.Checkpoint = n.exec.LatestCertificate
				gwCfg.SnapshotBlob = n.exec.CertifiedSnapshotBlob
			}
		}
		gw, err := rpc.New(gwCfg)
		if err != nil {
			return nil, fmt.Errorf("node: binding RPC gateway: %w", err)
		}
		n.gw = gw
	}
	if cfg.DebugAddr != "" {
		dbg, err := newDebugServer(cfg.DebugAddr)
		if err != nil {
			return nil, fmt.Errorf("node: binding debug listener: %w", err)
		}
		n.debug = dbg
		n.logger.Info("debug surface listening", "addr", dbg.Addr())
	}
	return n, nil
}

// executionConfig is the executor's configuration: checkpoints persisted to
// Config.SnapshotDir, the applied trace stage, and the checkpoint hook that
// feeds WAL compaction and certification.
func (n *Node) executionConfig() (*execution.Config, error) {
	cfg := n.cfg
	xc := &execution.Config{
		CheckpointInterval: cfg.CheckpointInterval,
		Metrics:            cfg.Metrics,
		// With certification on, a remote snapshot installs only with a
		// quorum certificate covering exactly its tuple, and the executor
		// keeps a frozen KV view per checkpoint for proof-carrying reads.
		CheckpointCerts: cfg.CheckpointCerts,
	}
	if cfg.SnapshotDir != "" {
		store, err := storage.NewSnapshotStore(cfg.SnapshotDir, 0)
		if err != nil {
			return nil, fmt.Errorf("node: opening snapshot store: %w", err)
		}
		xc.Store = store
	}
	if n.tracer != nil {
		xc.OnApplied = func(sub bullshark.CommittedSubDAG) {
			recordCommitStage(n.tracer, obs.StageApplied, &sub)
		}
	}
	if n.walw != nil || cfg.CheckpointCerts {
		// Checkpoint-driven WAL compaction: once a checkpoint is durable,
		// certificates below its boundary floor are redundant on replay (a
		// restart installs the checkpoint first), so the WAL writer drops
		// them at its next append. With certification on, the hook also
		// starts the signature gossip for the fresh checkpoint, as a task for
		// the engine goroutine. The hook runs on the executor's checkpoint
		// goroutine, which nothing on the engine goroutine waits for.
		xc.OnCheckpoint = func(snap execution.Snapshot) {
			if n.walw != nil && snap.Floor > 0 {
				n.walw.compactFloor.Store(uint64(snap.Floor))
			}
			if cfg.CheckpointCerts && snap.Cert == nil && !n.replaying.Load() {
				meta := checkpoint.Meta{
					Round:       snap.Round,
					CommitSeq:   snap.CommitSeq,
					StateRoot:   snap.StateRoot,
					StateDigest: snap.StateDigest,
					SchedDigest: checkpoint.SchedDigestOf(snap.SchedulerState),
				}
				n.enqueue(func() {
					n.dispatch(n.eng.OnLocalCheckpoint(meta))
				})
			}
		}
	}
	return xc, nil
}

// observer is the node's engine.Observer: the WAL writer makes inserted
// certificates and own proposals durable, and the tracer stamps the proposed
// and cert_formed stages. Both fire only for this validator's OWN headers —
// which carry exactly the transactions its local mempool admitted, so the
// admitting node holds the full waterfall from one clock. A checkpoint
// certificate wakes the gateway, which pushes it down ?full=1 streams. The
// WAL writer, tracer and gateway may each be nil.
type observer struct{ n *Node }

func (o observer) Inserted(cert *engine.Certificate) { o.n.walw.inserted(cert) }

func (o observer) Proposed(h *engine.Header) {
	o.n.walw.proposed(h)
	recordBatchStage(o.n.tracer, obs.StageProposed, h.Batch)
}

func (o observer) Certified(cert *engine.Certificate) {
	recordBatchStage(o.n.tracer, obs.StageCertFormed, cert.Header.Batch)
}

func (o observer) CheckpointCertified(*checkpoint.Certificate) {
	if o.n.gw != nil {
		o.n.gw.ObserveCheckpoint()
	}
}

// DebugAddr returns the debug listener's bound address ("" when
// Config.DebugAddr is unset).
func (n *Node) DebugAddr() string {
	if n.debug == nil {
		return ""
	}
	return n.debug.Addr()
}

// statusSnapshot assembles the node-level half of /v1/status from the
// thread-safe mirrors (the gateway fills in commit and mempool counters).
func (n *Node) statusSnapshot() rpc.StatusResponse {
	st := rpc.StatusResponse{
		Round:        n.statusRound.Load(),
		HighestRound: uint64(n.eng.DAG().HighestRound()),
		LastOrdered:  n.statusOrdered.Load(),
		Rejoining:    n.statusRejoining.Load(),
	}
	if n.exec != nil {
		st.AppliedSeq = n.exec.AppliedSeq()
		st.AppliedRound = uint64(n.exec.AppliedRound())
		root := n.exec.StateRoot()
		st.StateRoot = hex.EncodeToString(root[:])
		st.SnapshotFloor = uint64(n.exec.SnapshotFloor())
	}
	// Leader-scheduling half.
	st.CurrentLeader = uint32(n.leaderAhead(types.Round(st.Round)))
	if ms := n.schedState.Load(); ms != nil {
		st.ScheduleEpoch = uint64(ms.Epoch())
		st.ScheduleStartRound = uint64(ms.EpochStartRound())
		scores := ms.Scores()
		for _, id := range slices.Sorted(maps.Keys(scores)) {
			st.SchedulerScores = append(st.SchedulerScores, rpc.ValidatorScore{Validator: uint32(id), Score: scores[id]})
		}
		for _, id := range ms.Excluded() {
			st.ExcludedValidators = append(st.ExcludedValidators, uint32(id))
		}
	}
	return st
}

// leaderAhead is the leader of the next anchor round at or after round, read
// from the thread-safe schedule mirror (HammerHead) or the immutable
// round-robin schedule.
func (n *Node) leaderAhead(round types.Round) types.ValidatorID {
	if !round.IsAnchorRound() {
		round++
	}
	if ms := n.schedState.Load(); ms != nil {
		return ms.LeaderAt(round)
	}
	return n.rrSched.LeaderAt(round)
}

// Counters are the cumulative counters behind an operator's status line.
type Counters struct {
	Round            uint64
	LeaderTimeouts   uint64
	SnapshotInstalls uint64
	HeadersFullEarly uint64
	Committer        bullshark.Stats
}

// Counters reads the thread-safe mirrors, like statusSnapshot: the engine
// belongs to the loop goroutine and the committer to whichever goroutine
// orders, so neither may be asked directly while the node runs.
func (n *Node) Counters() Counters {
	c := Counters{
		Round:            n.statusRound.Load(),
		LeaderTimeouts:   n.statusTimeouts.Load(),
		SnapshotInstalls: n.statusSnapshotInstalls.Load(),
		HeadersFullEarly: n.statusFullEarly.Load(),
	}
	if cs := n.statusCommitter.Load(); cs != nil {
		c.Committer = *cs
	}
	return c
}

// publishSchedulerState stores the latest exported scheduler state for the
// status mirror and updates the scheduling gauges. Called from commit
// delivery (single goroutine) and once at construction.
func (n *Node) publishSchedulerState(ms *core.ManagerState) {
	n.schedState.Store(ms)
	if n.cfg.Metrics == nil {
		return
	}
	n.epochMetric.Set(int64(ms.Epoch()))
	n.epochStartMet.Set(int64(ms.EpochStartRound()))
	n.excludedMetric.Set(int64(len(ms.Excluded())))
	// Per-validator reputation scores ride in a validator label on one
	// metric family (the registry canonicalizes label order).
	for id, score := range ms.Scores() {
		n.cfg.Metrics.LabeledGauge("hammerhead_reputation_score",
			metrics.Label{Name: "validator", Value: strconv.FormatUint(uint64(id), 10)}).Set(score)
	}
}

// sinkCommit is the engine's CommitSink. During WAL recovery it delivers
// synchronously (every replayed commit must reach the handler before the
// node goes live); afterwards it enqueues for the commit loop, stamped with
// the current durability watermark. Called from the engine loop in serial
// mode and from the order stage when the pipeline is enabled — in both
// cases a single goroutine at a time, in commit order.
func (n *Node) sinkCommit(sub bullshark.CommittedSubDAG) {
	cs := n.eng.CommitterStats()
	n.statusCommitter.Store(&cs)
	if n.replaying.Load() {
		// WAL replay re-derives pre-crash commits; their trace entries died
		// with the process and must not be fabricated from post-restart time.
		n.deliverCommit(sub, true)
		return
	}
	// Ordered creates the trace when absent: a peer that never saw the tx's
	// admission still records the commit-side suffix of the waterfall.
	recordCommitStageCreate(n.tracer, obs.StageOrdered, &sub)
	d := commitDelivery{sub: sub, walSeq: n.walw.watermark()}
	select {
	case n.commitq <- d:
		if n.commitQMetric != nil {
			n.commitQMetric.Set(int64(len(n.commitq)))
		}
	case <-n.done:
	}
}

func (n *Node) commitLoop() {
	defer n.commitWg.Done()
	for d := range n.commitq {
		if n.commitQMetric != nil {
			n.commitQMetric.Set(int64(len(n.commitq)))
		}
		if d.walSeq > 0 {
			// Hold fresh commits until their certificates are in the WAL —
			// otherwise a crash between execution and append would
			// re-deliver them after restart as if never executed.
			n.walw.waitDurable(d.walSeq)
		}
		recordCommitStage(n.tracer, obs.StageDurable, &d.sub)
		n.deliverCommit(d.sub, false)
	}
}

func (n *Node) deliverCommit(sub bullshark.CommittedSubDAG, replayed bool) {
	if n.commitsMetric != nil {
		n.commitsMetric.Inc()
		n.txsMetric.Add(uint64(sub.TxCount()))
	}
	n.statusOrdered.Store(uint64(sub.Anchor.Round))
	if ms, ok := sub.SchedulerState.(*core.ManagerState); ok {
		n.publishSchedulerState(ms)
	}
	if n.gw != nil {
		// The gateway's commit ring feeds SSE subscribers; replayed commits
		// are included so resume history survives a restart.
		n.gw.ObserveCommit(sub)
		if !replayed {
			recordCommitStage(n.tracer, obs.StageStreamed, &sub)
		}
	}
	if n.exec != nil {
		// The executor dedupes by commit sequence, so replayed commits that
		// were already applied (from a pre-crash run resumed via a local
		// snapshot) fall out naturally.
		n.exec.Submit(sub)
	}
	if n.cfg.OnCommit != nil {
		n.cfg.OnCommit(sub, replayed)
	}
}

// HandleMessage is the transport inbound hook; safe for concurrent use.
// Signature-bearing messages detour through the pre-verify stage when it is
// enabled; a full pre-verify queue blocks the transport reader, which is
// exactly the backpressure an overloaded validator should exert on peers.
func (n *Node) HandleMessage(from types.ValidatorID, msg *engine.Message) {
	if n.prever != nil && engine.NeedsCheck(msg.Kind) {
		select {
		case n.preq <- inbound{from: from, msg: msg}:
			if n.queueMetric != nil {
				n.queueMetric.Set(int64(len(n.preq)))
			}
		case <-n.done:
		}
		return
	}
	n.enqueue(func() {
		out := n.eng.OnMessage(from, msg, time.Now().UnixNano())
		n.dispatch(out)
	})
}

// preverifyLoop is one pre-verify worker: it validates signatures off the
// engine goroutine, one after another, and forwards only messages that pass.
// Workers may reorder messages relative to each other; the engine tolerates
// arbitrary reordering (the network provides none of its own ordering
// either).
func (n *Node) preverifyLoop() {
	defer n.wg.Done()
	for {
		select {
		case in := <-n.preq:
			if n.queueMetric != nil {
				n.queueMetric.Set(int64(len(n.preq)))
			}
			if n.batchHist != nil {
				if size := sigCount(in.msg); size > 0 {
					n.batchHist.Observe(float64(size))
				}
			}
			if !n.prever.Check(in.msg) {
				if n.droppedMetric != nil {
					n.droppedMetric.Inc()
				}
				continue
			}
			n.enqueue(func() {
				out := n.eng.OnMessage(in.from, in.msg, time.Now().UnixNano())
				n.dispatch(out)
			})
		case <-n.done:
			return
		}
	}
}

// sigCount is the number of signatures a message carries: what the
// pre-verify stage checks for it.
func sigCount(msg *engine.Message) int {
	switch msg.Kind {
	case engine.KindHeader, engine.KindVote:
		return 1
	case engine.KindCertificate:
		// Nil payloads (a malformed frame whose Kind and payload disagree)
		// must not crash the worker; the pre-verify check drops them next.
		if msg.Cert == nil {
			return 0
		}
		return len(msg.Cert.Votes)
	case engine.KindCertResponse:
		if msg.CertResponse == nil {
			return 0
		}
		total := 0
		for _, c := range msg.CertResponse.Certs {
			if c != nil {
				total += len(c.Votes)
			}
		}
		return total
	default:
		return 0
	}
}

// PreVerifyStats returns the pre-verify stage's counters (zero when the
// stage is disabled).
func (n *Node) PreVerifyStats() engine.PreVerifyStats {
	if n.prever == nil {
		return engine.PreVerifyStats{}
	}
	return n.prever.Stats()
}

// Start boots the node on the given transport, whose handler must deliver
// to HandleMessage: it recovers the validator (local checkpoint, WAL replay,
// rejoin handshake — validator.Recover), transmits, and begins processing.
// Must be called once.
func (n *Node) Start(tr transport.Transport) error {
	n.startMu.Lock()
	defer n.startMu.Unlock()
	if n.started {
		return fmt.Errorf("node: already started")
	}
	n.started = true
	n.trans = tr

	if n.exec != nil {
		// First: Start makes the queue the commit loop submits to.
		n.exec.Start()
	}
	n.wg.Add(1)
	go n.loop()
	if n.prever != nil {
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			n.wg.Add(1)
			go n.preverifyLoop()
		}
	}
	n.commitWg.Add(1)
	go n.commitLoop()
	if n.gw != nil {
		// The gateway accepts submissions from the start: traffic arriving
		// during recovery simply queues in the mempool lanes until the node
		// goes live — exactly what clients of a briefly-restarting validator
		// should see (backpressure, not connection errors).
		n.gw.Start()
	}

	var replay validator.Replay
	if n.walw != nil {
		replay = n.walw.replay
	}
	var err error
	startup := make(chan struct{})
	n.enqueue(func() {
		defer close(startup)
		n.replaying.Store(true)
		err = n.v.Recover(func() int64 { return time.Now().UnixNano() }, replay,
			func() { n.replaying.Store(false) }, n.dispatch)
	})
	<-startup
	if err != nil {
		n.logger.Error("WAL recovery failed", "err", err)
		return fmt.Errorf("node: recovering from WAL: %w", err)
	}
	n.logger.Info("node started",
		"round", n.statusRound.Load(),
		"wal", n.walw != nil,
		"execution", n.exec != nil,
		"tracing", n.tracer != nil)
	return nil
}

// Submit hands a transaction to the mempool, stamping its submit time.
func (n *Node) Submit(tx types.Transaction) error {
	if tx.SubmitTimeNanos == 0 {
		tx.SubmitTimeNanos = time.Now().UnixNano()
	}
	return n.pool.Submit(tx)
}

// SubmitClient hands a client-attributed transaction to the fair-admission
// mempool (the RPC gateway's path; Submit uses the default lane).
func (n *Node) SubmitClient(client string, tx types.Transaction) error {
	if tx.SubmitTimeNanos == 0 {
		tx.SubmitTimeNanos = time.Now().UnixNano()
	}
	return n.pool.SubmitClient(client, tx)
}

// Gateway exposes the embedded RPC gateway (nil without Config.RPCAddr).
func (n *Node) Gateway() *rpc.Gateway { return n.gw }

// Engine exposes the engine for stats and inspection (reads must happen
// from commit handlers or after Close, as the loop owns the engine).
func (n *Node) Engine() *engine.Engine { return n.eng }

// Executor exposes the execution subsystem (nil when Config.Execution is
// off). Its status accessors are safe for concurrent use.
func (n *Node) Executor() *execution.Executor { return n.exec }

// Pool exposes the fair-admission mempool.
func (n *Node) Pool() *mempool.FairPool { return n.pool }

// Close stops the loop, closes the WAL and the transport.
func (n *Node) Close() error {
	n.startMu.Lock()
	if n.closed {
		n.startMu.Unlock()
		return nil
	}
	n.closed = true
	trans := n.trans
	n.startMu.Unlock()

	if n.debug != nil {
		_ = n.debug.Close()
	}
	if n.gw != nil {
		// Stop accepting client traffic before tearing the engine down.
		_ = n.gw.Close()
	}
	close(n.done)
	// Wake a commit delivery parked on the durability watermark.
	n.walw.wake()
	n.wg.Wait()
	// Stop the engine's order stage (drains already-queued vertices; its
	// sink sends can no longer block because done is closed), then drain the
	// commit loop — the WAL writer stays up meanwhile so watermark waits
	// keep resolving — and finally the WAL writer itself.
	n.eng.Close()
	close(n.commitq)
	n.commitWg.Wait()
	if n.exec != nil {
		// After the commit loop drained nothing submits anymore; the
		// executor applies its backlog and cuts a final checkpoint.
		n.exec.Close()
	}
	err := n.walw.close()
	if trans != nil {
		if terr := trans.Close(); err == nil {
			err = terr
		}
	}
	return err
}

// ---- internals ----

func (n *Node) enqueue(task func()) {
	select {
	case n.tasks <- task:
	case <-n.done:
	}
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case task := <-n.tasks:
			task()
		case <-n.done:
			return
		}
	}
}

// dispatch routes an engine output to the transport and timers. Commits
// never appear here — they flow through the engine's CommitSink — and WAL
// persistence happens in the engine's Observer, which runs before the
// inserted vertex can reach the committer.
func (n *Node) dispatch(out *engine.Output) {
	for _, u := range out.Unicasts {
		_ = n.trans.Send(u.To, u.Msg)
	}
	for _, msg := range out.Broadcasts {
		_ = n.trans.Broadcast(msg)
	}
	for _, t := range out.Timers {
		timer := t
		time.AfterFunc(t.Delay, func() {
			n.enqueue(func() {
				o := n.eng.OnTimer(timer, time.Now().UnixNano())
				n.dispatch(o)
			})
		})
	}
	n.statusRound.Store(uint64(n.eng.Round()))
	n.statusRejoining.Store(n.eng.Rejoining())
	st := n.eng.Stats()
	n.statusTimeouts.Store(st.LeaderTimeouts)
	n.statusSnapshotInstalls.Store(st.SnapshotInstalls)
	n.statusFullEarly.Store(st.HeadersFullEarly)
	if st.OwnVerticesPrunedUnordered > n.lostVertices {
		n.lostVertices = st.OwnVerticesPrunedUnordered
		n.logger.Warn("own certified vertices pruned without ever being ordered: their transactions will not commit",
			"vertices_total", st.OwnVerticesPrunedUnordered, "txs_total", st.OwnTxPrunedUnordered)
	}
	if n.cfg.Metrics != nil {
		n.roundMetric.Set(int64(n.eng.Round()))
		n.dagFloorMetric.Set(int64(n.eng.DAG().PrunedTo()))
		n.dagVertsMetric.Set(int64(n.eng.DAG().VertexCount()))
		mirrorCounter(n.abandonedMetric, st.HeadersAbandoned)
		mirrorCounter(n.carriedMetric, st.TxCarried)
		mirrorCounter(n.fullEarlyMetric, st.HeadersFullEarly)
		mirrorCounter(n.lostMetric, st.OwnVerticesPrunedUnordered)
	}
	if n.leaderMetric != nil {
		n.leaderMetric.Set(int64(n.leaderAhead(n.eng.Round())))
	}
	if n.pipelineMetric != nil {
		n.pipelineMetric.Set(int64(n.eng.PipelineBacklog()))
	}
}

// mirrorCounter raises c to total, an engine counter only dispatch publishes.
func mirrorCounter(c *metrics.Counter, total uint64) {
	if have := c.Value(); total > have {
		c.Add(total - have)
	}
}
