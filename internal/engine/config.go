package engine

import (
	"fmt"
	"time"
)

// Config holds the engine's protocol parameters. Zero value is invalid; use
// DefaultConfig as a base.
type Config struct {
	// MinRoundDelay paces partly filled headers: a validator proposes round
	// r+1 no earlier than MinRoundDelay after it proposed round r, unless
	// certificates worth f+1 stake already exist at r+1 (it is late), or it
	// holds MaxBatchTx transactions and every validator's round-r certificate
	// (a full batch has nothing left to wait for; see Engine.pacingOpen). A
	// floor on the round time that batches transactions — Narwhal's
	// min_header_delay, not its max_header_delay: nothing here forces a
	// header out, a round still waits for its quorum of certificates. 0
	// disables pacing.
	MinRoundDelay time.Duration
	// LeaderTimeout bounds the wait for the anchor certificate when leaving
	// an anchor round. This is the cost a crashed leader inflicts per anchor
	// round — the quantity HammerHead's scheduling removes.
	LeaderTimeout time.Duration
	// ResyncInterval paces re-requests for still-missing parent certificates.
	ResyncInterval time.Duration
	// MaxBatchTx caps transactions per header, and a header's worth of them
	// lifts the MinRoundDelay floor. So while the whole committee keeps up
	// it is no throughput cap: under backlog, full headers go out at the
	// pace of certification.
	MaxBatchTx int
	// VerifySignatures enables full signature verification on headers,
	// votes and certificates. Simulations of crash-only deployments disable
	// it (see internal/crypto).
	VerifySignatures bool
	// GCDepth is how many rounds below the committer's floor are retained
	// before pruning. Pruning runs after every GCEvery commits.
	GCDepth uint64
	GCEvery uint64
	// MaxSyncBatch caps the digests read from one CertRequest, and so the
	// certificates per CertResponse (and per RoundResponse). The engine's own
	// CertRequests are chunked to it, so every validator must use the same
	// value: a server with a smaller one ignores the tail of each chunk, and
	// resync re-sends the same chunks.
	MaxSyncBatch int
	// MaxPendingCerts bounds the causal-sync pending set; above it, the
	// pending certificate furthest above the DAG frontier is evicted (it can
	// be re-fetched by round sync if it was genuine). 0 selects the default.
	MaxPendingCerts int
	// PipelineDepth selects the engine's execution mode. 0 runs stage 2
	// inline: certificate insertion, the Bullshark committer walk and
	// scheduler epoch logic all happen on the caller's goroutine — the mode
	// the discrete-event simulator requires (virtual time cannot cross
	// goroutines) and the default for tests. > 0 enables the two-stage
	// pipeline: ingest (validate + DAG insert) returns to message processing
	// immediately while an order stage consumes inserted vertices from a
	// bounded queue of this depth, running the committer and delivering
	// commits to the CommitSink asynchronously. Commit order is identical in
	// both modes. Real nodes default to DefaultPipelineDepth.
	PipelineDepth int
	// SnapshotChunkBytes caps the payload of one SnapshotResponse during
	// state-sync (0 selects DefaultSnapshotChunkBytes). Tests shrink it to
	// exercise the multi-chunk resume path.
	SnapshotChunkBytes int
	// RejoinTimeout paces the crash-rejoin handshake: a restarted validator
	// that has not yet gathered a write quorum of RejoinResponses
	// re-broadcasts its RejoinRequest this often, forever — a committee below
	// quorum cannot progress anyway, so retrying until peers return is the
	// only correct behavior. 0 selects 2x ResyncInterval.
	RejoinTimeout time.Duration
}

// DefaultSnapshotChunkBytes is the snapshot state-sync chunk size: small
// enough that serving a chunk never monopolizes the engine loop, large
// enough that realistic snapshots move in a handful of round-trips.
const DefaultSnapshotChunkBytes = 256 << 10

// DefaultPipelineDepth is the order-stage queue bound real nodes use: deep
// enough that ingest never stalls on a committer walk during catch-up
// bursts, shallow enough to bound memory and how far ingest outruns
// execution.
const DefaultPipelineDepth = 256

// DefaultConfig returns the defaults every runtime starts from
// (hammerhead-node's flags included); the simulated experiments override the
// pacing knobs per scenario.
func DefaultConfig() Config {
	return Config{
		MinRoundDelay:    50 * time.Millisecond,
		LeaderTimeout:    2 * time.Second,
		ResyncInterval:   time.Second,
		MaxBatchTx:       500,
		VerifySignatures: true,
		GCDepth:          50,
		GCEvery:          16,
		MaxSyncBatch:     512,
		MaxPendingCerts:  8192,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinRoundDelay < 0 || c.LeaderTimeout <= 0 || c.ResyncInterval <= 0 {
		return fmt.Errorf("engine: MinRoundDelay must be >= 0, LeaderTimeout and ResyncInterval > 0 (round=%v leader=%v resync=%v)",
			c.MinRoundDelay, c.LeaderTimeout, c.ResyncInterval)
	}
	if c.MaxBatchTx < 1 {
		return fmt.Errorf("engine: MaxBatchTx must be >= 1, got %d", c.MaxBatchTx)
	}
	if c.GCEvery == 0 || c.GCDepth == 0 {
		return fmt.Errorf("engine: GCEvery and GCDepth must be positive")
	}
	if c.MaxSyncBatch < 1 {
		return fmt.Errorf("engine: MaxSyncBatch must be >= 1, got %d", c.MaxSyncBatch)
	}
	if c.MaxPendingCerts < 0 {
		return fmt.Errorf("engine: MaxPendingCerts must be >= 0, got %d", c.MaxPendingCerts)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("engine: PipelineDepth must be >= 0, got %d", c.PipelineDepth)
	}
	if c.SnapshotChunkBytes < 0 {
		return fmt.Errorf("engine: SnapshotChunkBytes must be >= 0, got %d", c.SnapshotChunkBytes)
	}
	if c.RejoinTimeout < 0 {
		return fmt.Errorf("engine: RejoinTimeout must be >= 0, got %v", c.RejoinTimeout)
	}
	return nil
}

// TimerKind discriminates engine timers.
type TimerKind uint8

// Timer kinds. Start at 1 so the zero value is invalid.
const (
	// TimerLeader fires when the leader-wait at an anchor round expires.
	TimerLeader TimerKind = iota + 1
	// TimerRoundDelay fires when MinRoundDelay since the last proposal has
	// elapsed, allowing the next header.
	TimerRoundDelay
	// TimerResync fires periodically while parent certificates are missing.
	TimerResync
	// TimerHeaderRetry re-broadcasts the current header if it has not
	// certified yet (lost broadcast, peers restarting, recovery replay).
	TimerHeaderRetry
	// TimerProgress periodically checks for round progress; when none
	// happened since the previous firing, the engine pulls the certificate
	// frontier from a rotating peer (RoundRequest).
	TimerProgress
	// TimerSnapshot paces an active snapshot state-sync fetch: when no chunk
	// arrived since it was armed, the request is retried, eventually rotating
	// to another responder (restarting the fetch — chunk encodings are not
	// byte-compatible across responders).
	TimerSnapshot
	// TimerRejoin paces the crash-rejoin handshake: while the restarted
	// engine has not gathered a write quorum of RejoinResponses, the request
	// is re-broadcast (peers may still be restarting themselves).
	TimerRejoin
)

// String implements fmt.Stringer.
func (k TimerKind) String() string {
	switch k {
	case TimerLeader:
		return "leader"
	case TimerRoundDelay:
		return "round-delay"
	case TimerResync:
		return "resync"
	case TimerHeaderRetry:
		return "header-retry"
	case TimerProgress:
		return "progress"
	case TimerSnapshot:
		return "snapshot"
	case TimerRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("timer(%d)", uint8(k))
	}
}

// Timer is a request to be called back after Delay. Round scopes leader and
// round-delay timers to the round they were armed for, so stale firings are
// ignored.
type Timer struct {
	Kind  TimerKind
	Round uint64
	Delay time.Duration
}
