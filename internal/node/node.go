// Package node runs the HammerHead validator on a real runtime: goroutines,
// wall-clock timers, pluggable transports (in-process channels or TCP), WAL
// persistence with crash-recovery, and metrics. It drives the exact same
// engine the simulator drives — the protocol logic is shared line for line.
package node

import (
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
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
	// MempoolShards is the transaction pool's shard count, rounded up to a
	// power of two (0 sizes it to the machine). Each shard has its own
	// lock, so concurrent clients do not serialize on one mutex.
	MempoolShards int
	// MempoolLanes is the fair-admission lane count: client IDs arriving
	// through the RPC gateway hash onto lanes, each with its own capacity
	// share of MempoolSize, so one saturating client cannot starve the
	// others' admission. <= 1 keeps a single lane with the classic pool
	// semantics (the node's own Submit path always uses lane 0).
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
	cfg   Config
	eng   *engine.Engine
	pool  *mempool.FairPool
	trans transport.Transport
	wal   *storage.WAL
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
	// preWorkers goroutines pulling from preq, off the engine loop, before
	// being enqueued into the single-threaded state machine. Nil prever
	// disables the stage (signature verification off).
	prever     *engine.PreVerifier
	preq       chan inbound
	preWorkers int

	// Commit delivery runs on its own goroutine: the engine's CommitSink
	// enqueues ordered sub-DAGs here and commitLoop hands them to the
	// configured handler, so a slow executor backpressures the (bounded)
	// queue instead of stalling the engine or the order stage directly.
	commitq   chan commitDelivery
	commitWg  sync.WaitGroup
	replaying atomic.Bool

	// WAL appends run on their own goroutine too: the engine's Persist hook
	// only enqueues the inserted certificate, keeping append latency out of
	// message processing. walSeq/walDone form the durability watermark:
	// Persist runs before a vertex can reach any commit, so a commit sinked
	// when walSeq == S contains only certificates enqueued at or before S,
	// and commitLoop holds its delivery until walDone >= S. That preserves
	// the recovery invariant the synchronous append used to give: a commit
	// handed to the executor with replayed=false is re-derivable from the
	// WAL, so it can never be re-delivered as fresh after a crash.
	walq    chan walEntry
	walWg   sync.WaitGroup
	walMu   sync.Mutex
	walCond *sync.Cond
	walSeq  uint64 // guarded by walMu; certificates enqueued for append
	walDone uint64 // guarded by walMu; certificates appended (or abandoned at shutdown)
	// compactFloor is the round below which the WAL no longer needs to
	// replay, published by the executor's checkpoint hook and consumed by the
	// WAL writer between appends (0 = no compaction pending). Wired whenever
	// a restart can resume from the checkpoint (execution on, WAL on) —
	// including under HammerHead, whose scheduler state rides inside the
	// checkpoint since the floor is by construction at or below the restored
	// schedule's minimum retained round.
	compactFloor atomic.Uint64

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
	walQMetric      *metrics.Gauge
	compactsMetric  *metrics.Counter
	compactFailsMet *metrics.Counter
	epochMetric     *metrics.Gauge
	epochStartMet   *metrics.Gauge
	leaderMetric    *metrics.Gauge
	excludedMetric  *metrics.Gauge
	abandonedMetric *metrics.Counter
	carriedMetric   *metrics.Counter
	lostMetric      *metrics.Counter
}

// inbound is one transport delivery awaiting pre-verification.
type inbound struct {
	from types.ValidatorID
	msg  *engine.Message
}

// commitDelivery is one ordered sub-DAG awaiting the commit handler.
// walSeq is the durability watermark the delivery waits for (0 when the
// node runs without a WAL or the commit was replayed from it).
type commitDelivery struct {
	sub      bullshark.CommittedSubDAG
	replayed bool
	walSeq   uint64
}

// walEntry is one record awaiting the WAL writer: an inserted certificate
// (tracked by the durability watermark) or this validator's own signed
// proposal header (the voted-round high-water mark; commits never wait on
// it). done, when non-nil, is closed once the record is appended AND fsynced
// — the proposer blocks on it so the header cannot reach the wire before the
// voted-mark is durable.
type walEntry struct {
	cert     *engine.Certificate
	proposal *engine.Header
	done     chan struct{}
}

// New builds a node bound to the given transport-joining function. Call
// Start to boot it. The returned node owns the WAL (if configured).
func New(cfg Config, trans transport.Transport) (*Node, error) {
	if cfg.Committee == nil {
		return nil, fmt.Errorf("node: committee is required")
	}
	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer(cfg.TraceSlots, cfg.Metrics)
	}
	fairCfg := mempool.FairConfig{
		MaxSize: cfg.MempoolSize,
		Shards:  cfg.MempoolShards,
		Lanes:   cfg.MempoolLanes,
	}
	if tracer != nil {
		// The admitted stage starts a trace; tx ID 0 means "gateway will
		// assign one later" on some paths, so it never gets a trace entry.
		fairCfg.OnAdmit = func(tx types.Transaction) {
			if tx.ID != 0 {
				tracer.Record(obs.StageAdmitted, tx.ID)
			}
		}
	}
	pool := mempool.NewFair(fairCfg)
	d := dag.New(cfg.Committee)

	var sched leader.Scheduler
	if cfg.HammerHead != nil {
		hh := *cfg.HammerHead
		hh.Seed = cfg.ScheduleSeed
		m, err := core.NewManager(cfg.Committee, d, hh)
		if err != nil {
			return nil, fmt.Errorf("node: building HammerHead scheduler: %w", err)
		}
		sched = m
	} else {
		sched = leader.NewRoundRobin(cfg.Committee, cfg.ScheduleSeed)
	}

	n := &Node{
		cfg:     cfg,
		pool:    pool,
		trans:   trans,
		tracer:  tracer,
		logger:  obs.WithValidator(obs.Component(cfg.Logger, "node"), uint64(cfg.Self)),
		tasks:   make(chan func(), 4096),
		done:    make(chan struct{}),
		commitq: make(chan commitDelivery, 1024),
	}
	// Seed the scheduler status mirror so /v1/status reports the initial
	// schedule before the first commit publishes an export.
	if m, ok := sched.(*core.Manager); ok {
		if st, ok := m.ExportState().(*core.ManagerState); ok {
			n.schedState.Store(st)
		}
	} else if rr, ok := sched.(*leader.RoundRobin); ok {
		n.rrSched = rr
	}
	params := engine.Params{
		Config:     cfg.Engine,
		Committee:  cfg.Committee,
		Self:       cfg.Self,
		Keys:       cfg.Keys,
		PublicKeys: cfg.PublicKeys,
		Batches:    pool,
		Scheduler:  sched,
		DAG:        d,
		Commits:    engine.CommitSinkFunc(n.sinkCommit),
	}
	if tracer != nil {
		// Proposed / cert_formed fire only for this validator's OWN headers —
		// which carry exactly the transactions its local mempool admitted, so
		// the admitting node holds the full waterfall from one clock.
		params.OnOwnHeader = func(h *engine.Header) {
			recordBatchStage(tracer, obs.StageProposed, h.Batch)
		}
		params.OnOwnCert = func(c *engine.Certificate) {
			recordBatchStage(tracer, obs.StageCertFormed, c.Header.Batch)
		}
	}
	if cfg.Execution {
		var store execution.SnapshotStore
		if cfg.SnapshotDir != "" {
			fileStore, err := storage.NewSnapshotStore(cfg.SnapshotDir, 0)
			if err != nil {
				return nil, fmt.Errorf("node: opening snapshot store: %w", err)
			}
			store = fileStore
		}
		execCfg := execution.Config{
			CheckpointInterval: cfg.CheckpointInterval,
			Store:              store,
			Metrics:            cfg.Metrics,
			// A HammerHead node must never install a snapshot that does not
			// carry scheduler state — restoring the KV state without the
			// schedule would silently degrade it to a stale leader sequence.
			RequireSchedulerState: cfg.HammerHead != nil,
		}
		if tracer != nil {
			execCfg.OnApplied = func(sub bullshark.CommittedSubDAG) {
				recordCommitStage(tracer, obs.StageApplied, &sub)
			}
		}
		if cfg.CheckpointCerts {
			if len(cfg.PublicKeys) != cfg.Committee.Size() {
				return nil, fmt.Errorf("node: checkpoint certification needs all %d public keys (have %d)",
					cfg.Committee.Size(), len(cfg.PublicKeys))
			}
			// With certification on, never install a remote snapshot on the
			// responder's word alone: require a quorum certificate covering
			// exactly the snapshot's tuple. It is also what makes the executor
			// keep a frozen KV view per checkpoint for proof-carrying reads.
			execCfg.CheckpointCerts = true
			execCfg.CertVerifier = func(cert *checkpoint.Certificate) error {
				return cert.Verify(cfg.Committee, cfg.PublicKeys, cfg.Keys.Scheme)
			}
		}
		if cfg.WALPath != "" || cfg.CheckpointCerts {
			// Checkpoint-driven WAL compaction: once a checkpoint is durable,
			// certificates below its boundary floor are redundant on replay (a
			// restart installs the checkpoint first), so the WAL writer drops
			// them at its next append. Under HammerHead the checkpoint carries
			// the scheduler state and the executor clamps the floor to the
			// schedule's minimum retained round, so compaction is safe for both
			// schedulers. With certification on, the hook also starts the
			// signature gossip for the fresh checkpoint. The hook runs with the
			// executor's lock held — hand the engine work to a goroutine so the
			// (bounded) task queue cannot deadlock the apply loop.
			compact := cfg.WALPath != ""
			certify := cfg.CheckpointCerts
			execCfg.OnCheckpoint = func(snap execution.Snapshot) {
				if compact && snap.Floor > 0 {
					n.compactFloor.Store(uint64(snap.Floor))
				}
				if certify && snap.Cert == nil && !n.replaying.Load() {
					meta := checkpoint.Meta{
						Round:       snap.Round,
						CommitSeq:   snap.CommitSeq,
						StateRoot:   snap.StateRoot,
						StateDigest: snap.StateDigest,
						SchedDigest: checkpoint.SchedDigestOf(snap.SchedulerState),
					}
					go n.enqueue(func() {
						n.dispatch(n.eng.OnLocalCheckpoint(meta), true)
					})
				}
			}
		}
		n.exec = execution.NewExecutor(execution.NewKVState(), execCfg)
		params.Snapshots = n.exec
		params.InstallSnapshot = n.exec.InstallFromWire
		params.AppliedSeq = n.exec.AppliedSeq
		if cfg.CheckpointCerts {
			// Certificates assembled (or adopted) by the engine attach to the
			// executor's matching cached checkpoint, becoming the certified
			// state for proof-carrying reads and certified snapshot serving.
			// Runs on the engine goroutine; AttachCertificate only takes the
			// executor lock, so there is no cycle with OnCheckpoint above.
			params.OnCheckpointCert = func(cert *checkpoint.Certificate) {
				n.exec.AttachCertificate(cert.Meta.CommitSeq, cert)
			}
		}
	}
	if cfg.WALPath != "" {
		n.walq = make(chan walEntry, 1024)
		n.walCond = sync.NewCond(&n.walMu)
		params.Persist = n.persistCert
		params.PersistProposal = n.persistProposal
		// Until Start finishes recovery and goes live, inserted certificates
		// are not appended (pre-replay arrivals were never persisted before
		// either; WAL-replayed ones must not be re-appended) and commits are
		// delivered flagged replayed.
		n.replaying.Store(true)
	}
	eng, err := engine.New(params)
	if err != nil {
		return nil, fmt.Errorf("node: building engine: %w", err)
	}
	n.eng = eng
	if cfg.Engine.VerifySignatures {
		workers := cfg.Engine.VerifyWorkers
		if workers < 1 {
			workers = 1
		}
		// VerifyWorkers bounds TOTAL verification concurrency: parallelism
		// comes from running `workers` pre-verify loops, each verifying its
		// message's signatures inline (PreVerifier width 1). Nesting a
		// per-certificate fan-out inside each loop would oversubscribe the
		// budget quadratically.
		n.preWorkers = workers
		n.prever = engine.NewPreVerifier(cfg.Keys.Scheme, cfg.Committee, cfg.PublicKeys, 1)
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
		n.batchHist = cfg.Metrics.Histogram("hammerhead_verify_batch_size",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128})
		n.pipelineMetric = cfg.Metrics.Gauge("hammerhead_pipeline_depth")
		n.commitQMetric = cfg.Metrics.Gauge("hammerhead_commit_queue_depth")
		n.walQMetric = cfg.Metrics.Gauge("hammerhead_wal_queue_depth")
		n.compactsMetric = cfg.Metrics.Counter("hammerhead_wal_compactions_total")
		n.compactFailsMet = cfg.Metrics.Counter("hammerhead_wal_compaction_failures_total")
		n.epochMetric = cfg.Metrics.Gauge("hammerhead_schedule_epoch")
		n.epochStartMet = cfg.Metrics.Gauge("hammerhead_schedule_start_round")
		n.leaderMetric = cfg.Metrics.Gauge("hammerhead_current_leader")
		n.excludedMetric = cfg.Metrics.Gauge("hammerhead_excluded_validators")
		n.abandonedMetric = cfg.Metrics.Counter("hammerhead_headers_abandoned_total")
		n.carriedMetric = cfg.Metrics.Counter("hammerhead_tx_carried_total")
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
			Lane:      pool.LaneFor,
			LaneStats: pool.LaneStats,
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
	// Leader-scheduling half: CurrentLeader is the leader of the next anchor
	// round at or after the engine's round, read from the thread-safe
	// schedule mirror (HammerHead) or the immutable round-robin schedule.
	anchor := types.Round(st.Round)
	if !anchor.IsAnchorRound() {
		anchor++
	}
	if ms := n.schedState.Load(); ms != nil {
		st.ScheduleEpoch = uint64(ms.Epoch())
		st.ScheduleStartRound = uint64(ms.EpochStartRound())
		st.CurrentLeader = uint32(ms.LeaderAt(anchor))
		scores := ms.Scores()
		if len(scores) > 0 {
			ids := make([]types.ValidatorID, 0, len(scores))
			for id := range scores {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			st.SchedulerScores = make([]rpc.ValidatorScore, 0, len(ids))
			for _, id := range ids {
				st.SchedulerScores = append(st.SchedulerScores, rpc.ValidatorScore{
					Validator: uint32(id),
					Score:     scores[id],
				})
			}
		}
		for _, id := range ms.Excluded() {
			st.ExcludedValidators = append(st.ExcludedValidators, uint32(id))
		}
	} else if n.rrSched != nil {
		st.CurrentLeader = uint32(n.rrSched.LeaderAt(anchor))
	}
	return st
}

// Counters are the cumulative counters behind an operator's status line.
type Counters struct {
	Round            uint64
	LeaderTimeouts   uint64
	SnapshotInstalls uint64
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

// persistCert is the engine's Persist hook: it runs on the ingest
// goroutine, in insertion order, before the certificate's vertex can reach
// the committer, and enqueues the certificate for the WAL writer. Replayed
// certificates came from the WAL and are not re-appended.
func (n *Node) persistCert(cert *engine.Certificate) {
	if n.replaying.Load() {
		return
	}
	n.walMu.Lock()
	n.walSeq++
	n.walMu.Unlock()
	select {
	case n.walq <- walEntry{cert: cert}:
		if n.walQMetric != nil {
			n.walQMetric.Set(int64(len(n.walq)))
		}
	case <-n.done:
		// Shutdown: the append will never happen; advance the watermark so
		// a commit delivery waiting on it is not stranded.
		n.walMu.Lock()
		n.walDone++
		n.walMu.Unlock()
		n.walCond.Broadcast()
	}
}

// persistProposal is the engine's PersistProposal hook: it records this
// validator's own signed header — the voted-round high-water mark — so a
// restart re-adopts the identical proposal instead of equivocating the slot.
// Runs on the engine goroutine at propose time, before the header's
// broadcast is dispatched; replay-time proposals are suppressed exactly like
// certificate appends. Proposals do not advance the commit durability
// watermark (no commit depends on them), but the hook BLOCKS until the
// record is appended and fsynced: a fire-and-forget append left a torn-tail
// window where the header had already reached peers while the voted-mark
// record was still (or only partially) in the page cache — a crash there
// re-proposed the slot and equivocated against surviving pre-crash votes.
func (n *Node) persistProposal(h *engine.Header) {
	if n.replaying.Load() {
		return
	}
	done := make(chan struct{})
	select {
	case n.walq <- walEntry{proposal: h, done: done}:
		if n.walQMetric != nil {
			n.walQMetric.Set(int64(len(n.walq)))
		}
	case <-n.done:
		return
	}
	select {
	case <-done:
	case <-n.done:
		// Shutdown: the broadcast will never be dispatched either.
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
	d := commitDelivery{sub: sub}
	if n.walq != nil {
		n.walMu.Lock()
		d.walSeq = n.walSeq
		n.walMu.Unlock()
	}
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
		if !d.replayed && d.walSeq > 0 {
			// Hold fresh commits until their certificates are in the WAL —
			// otherwise a crash between execution and append would
			// re-deliver them after restart as if never executed.
			n.walMu.Lock()
			for n.walDone < d.walSeq && !n.closing() {
				n.walCond.Wait()
			}
			n.walMu.Unlock()
		}
		if !d.replayed {
			recordCommitStage(n.tracer, obs.StageDurable, &d.sub)
		}
		n.deliverCommit(d.sub, d.replayed)
	}
}

func (n *Node) closing() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
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

// walLoop appends inserted certificates in order and advances the
// durability watermark. Persistence failure must not stall consensus
// (recovery falls back to peer sync), so append errors are swallowed — the
// watermark still advances, matching the pre-pipeline behavior where a
// failed synchronous append did not block commit delivery either. Between
// appends the loop runs any pending checkpoint-driven compaction: the writer
// goroutine owns the file handle, so the rewrite needs no extra locking.
func (n *Node) walLoop() {
	defer n.walWg.Done()
	for entry := range n.walq {
		if n.walQMetric != nil {
			n.walQMetric.Set(int64(len(n.walq)))
		}
		appendEntry := func() error {
			if entry.cert != nil {
				return n.wal.Append(entry.cert)
			}
			return n.wal.AppendProposal(entry.proposal)
		}
		if err := appendEntry(); errors.Is(err, storage.ErrClosed) {
			// The only closed-while-running path is a compaction whose reopen
			// failed. The log itself lives on disk; reopen it and retry this
			// record, so a transient FS error costs at most the records
			// between failure and the next append instead of silently ending
			// durability for the rest of the process lifetime.
			if w, oerr := storage.OpenWAL(n.cfg.WALPath); oerr == nil {
				n.wal = w
				_ = appendEntry()
			}
		}
		if entry.cert == nil {
			// Proposal records are not part of the commit durability
			// watermark, but the proposer blocks until the record is durable:
			// fsync before releasing it. A sync failure is swallowed like an
			// append failure (consensus must not stall on local disk trouble);
			// the proposer is released regardless.
			if entry.done != nil {
				_ = n.wal.Sync()
				close(entry.done)
			}
			continue
		}
		n.walMu.Lock()
		n.walDone++
		n.walMu.Unlock()
		n.walCond.Broadcast()
		if floor := n.compactFloor.Swap(0); floor > 0 {
			// Compaction failure is as tolerable as an append failure: the log
			// keeps (at worst) redundant history, never loses needed records.
			if err := n.wal.CompactTo(types.Round(floor)); err != nil {
				n.logger.Warn("WAL compaction failed", "floor", floor, "err", err)
				if n.compactFailsMet != nil {
					n.compactFailsMet.Inc()
				}
			} else if n.compactsMetric != nil {
				n.compactsMetric.Inc()
			}
		}
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
		n.dispatch(out, true)
	})
}

// preverifyLoop is one pre-verify worker: it validates signatures off the
// engine goroutine and forwards only messages that pass. Workers may
// reorder messages relative to each other; the engine tolerates arbitrary
// reordering (the network provides none of its own ordering either).
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
				n.dispatch(out, true)
			})
		case <-n.done:
			return
		}
	}
}

// sigCount is the number of signatures a message carries — the batch size
// the pre-verify stage hands the batch verifier.
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

// Start boots the node: replays the WAL (if any), initializes the engine
// and begins processing. Must be called once.
func (n *Node) Start() error {
	n.startMu.Lock()
	defer n.startMu.Unlock()
	if n.started {
		return fmt.Errorf("node: already started")
	}
	n.started = true

	if n.exec != nil {
		// First: Start makes the queue the commit loop submits to.
		n.exec.Start()
	}
	n.wg.Add(1)
	go n.loop()
	if n.prever != nil {
		for i := 0; i < n.preWorkers; i++ {
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

	var walErr error
	startup := make(chan struct{})
	n.enqueue(func() {
		defer close(startup)
		// Boot the engine quietly: genesis goes in and the first proposal is
		// built, but nothing is transmitted until recovery finishes (peers
		// would see a stale duplicate).
		n.replaying.Store(true)

		// A locally persisted checkpoint fast-forwards executor and engine
		// BEFORE WAL replay: certificates below the snapshot's floor are
		// covered by it (the replay drops them), and commits re-derived above
		// the checkpoint sequence re-apply idempotently. This is how a node
		// that slept past the committee's GC horizon resumes from its own
		// state instead of an unrecoverable certificate gap. The checkpoint
		// carries the scheduler's state, so under HammerHead the engine
		// restores the exact schedule before fast-forwarding; a checkpoint
		// without scheduler state (cut under the round-robin baseline) gives
		// it nothing to restore, so there is no fast-forward — the executor
		// still restores, and WAL replay rebuilds ordering with the sequence
		// dedupe absorbing re-derived commits.
		if n.exec != nil {
			if snap, ok := n.exec.Store().Latest(); ok {
				if meta, install, err := n.exec.InstallLocal(snap); err == nil {
					n.dispatch(n.eng.FastForwardToSnapshot(meta, install, time.Now().UnixNano()), false)
				}
			}
		}
		initOut := n.eng.Init(time.Now().UnixNano())

		if n.cfg.WALPath != "" {
			// Recovery: replay persisted certificates through the normal
			// message path. Commits are re-derived deterministically and
			// reach the handler through the sink flagged replayed; no
			// messages go out (outputs suppressed). Proposal records are
			// collected alongside: the highest one is the voted-round
			// high-water mark restored below.
			var validBytes int64
			var lastProposal *engine.Header
			validBytes, walErr = storage.ReplayPrefixRecords(n.cfg.WALPath, func(cert *engine.Certificate) error {
				n.eng.OnMessage(n.cfg.Self, &engine.Message{
					Kind: engine.KindCertificate,
					Cert: cert,
				}, time.Now().UnixNano())
				return nil
			}, func(h *engine.Header) error {
				if h.Source == n.cfg.Self && (lastProposal == nil || h.Round > lastProposal.Round) {
					lastProposal = h
				}
				return nil
			})
			if walErr != nil {
				return
			}
			// Re-adopt the recorded pre-crash proposal (if any): recovery will
			// re-transmit the identical header instead of building a fresh one
			// for a slot whose certificate may have survived elsewhere —
			// re-proposing would equivocate the slot.
			n.eng.RestoreProposal(lastProposal)
			// Reuse the replay's measured prefix: the open truncates any torn
			// tail without re-scanning the file (appending after garbage
			// would strand everything written after it at the NEXT replay).
			wal, err := storage.OpenWALTrimmed(n.cfg.WALPath, validBytes)
			if err != nil {
				walErr = err
				return
			}
			n.wal = wal
			n.walWg.Add(1)
			go n.walLoop()
		}
		// Drain the order stage so every replay-derived commit is delivered
		// (and flagged replayed) before the node goes live, then transmit the
		// initial proposal and arm its timers.
		n.eng.Flush()
		n.replaying.Store(false)
		if n.cfg.WALPath != "" {
			// Init ran before replay: when the log moved the engine past that
			// first proposal, its queued broadcast is a stale header for an
			// already-signed slot — transmitting it would look like (and be
			// refused as) slot equivocation by peers that voted pre-crash.
			// Only the engine's CURRENT proposal may go out.
			cur := n.eng.CurrentProposal()
			kept := initOut.Broadcasts[:0]
			for _, m := range initOut.Broadcasts {
				if m.Kind == engine.KindHeader && m.Header != cur {
					continue
				}
				kept = append(kept, m)
			}
			initOut.Broadcasts = kept
		}
		if n.walq != nil {
			// A proposal built while appends were suppressed (the initial
			// proposal of a fresh boot) is about to go on the wire; record it
			// first so a crash cannot force a conflicting re-proposal of the
			// slot. Restored proposals are already in the log (their round
			// equals the floor) and are not re-appended.
			if h := n.eng.CurrentProposal(); h != nil && h.Round > n.eng.ProposalFloor() {
				n.persistProposal(h)
			}
		}
		n.dispatch(initOut, true)
		// Crash-rejoin handshake: proposals made and timers armed while
		// replaying were never transmitted (outputs suppressed). A single
		// recovering node gets pulled forward by the live frontier, but on a
		// correlated restart every peer replays the same dead history and the
		// committee wedges at its pre-crash round. StartRejoin resets the
		// phantom-timer bookkeeping, gathers a write quorum of peer frontiers
		// (retrying until peers come back) and re-proposes into a fresh round
		// strictly above everything that only existed in dead memory.
		n.dispatch(n.eng.StartRejoin(time.Now().UnixNano()), true)
	})
	<-startup
	if walErr != nil {
		n.logger.Error("WAL recovery failed", "err", walErr)
		return fmt.Errorf("node: recovering from WAL: %w", walErr)
	}
	n.logger.Info("node started",
		"round", n.statusRound.Load(),
		"wal", n.cfg.WALPath != "",
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
	n.startMu.Unlock()

	if n.debug != nil {
		_ = n.debug.Close()
	}
	if n.gw != nil {
		// Stop accepting client traffic before tearing the engine down.
		_ = n.gw.Close()
	}
	close(n.done)
	if n.walCond != nil {
		// Wake a commit delivery parked on the durability watermark.
		n.walCond.Broadcast()
	}
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
	if n.walq != nil {
		close(n.walq)
		n.walWg.Wait()
	}
	var err error
	if n.wal != nil {
		err = n.wal.Close()
	}
	if terr := n.trans.Close(); err == nil {
		err = terr
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
// persistence happens in the engine's Persist hook, which runs before the
// inserted vertex can reach the committer. transmit=false suppresses
// outbound traffic (recovery replay).
func (n *Node) dispatch(out *engine.Output, transmit bool) {
	if transmit {
		for _, u := range out.Unicasts {
			_ = n.trans.Send(u.To, u.Msg)
		}
		for _, msg := range out.Broadcasts {
			_ = n.trans.Broadcast(msg)
		}
	}
	for _, t := range out.Timers {
		timer := t
		time.AfterFunc(t.Delay, func() {
			n.enqueue(func() {
				o := n.eng.OnTimer(timer, time.Now().UnixNano())
				n.dispatch(o, true)
			})
		})
	}
	n.statusRound.Store(uint64(n.eng.Round()))
	n.statusRejoining.Store(n.eng.Rejoining())
	st := n.eng.Stats()
	n.statusTimeouts.Store(st.LeaderTimeouts)
	n.statusSnapshotInstalls.Store(st.SnapshotInstalls)
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
		mirrorCounter(n.lostMetric, st.OwnVerticesPrunedUnordered)
	}
	if n.leaderMetric != nil {
		anchor := n.eng.Round()
		if !anchor.IsAnchorRound() {
			anchor++
		}
		if ms := n.schedState.Load(); ms != nil {
			n.leaderMetric.Set(int64(ms.LeaderAt(anchor)))
		} else if n.rrSched != nil {
			n.leaderMetric.Set(int64(n.rrSched.LeaderAt(anchor)))
		}
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
