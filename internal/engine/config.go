package engine

import (
	"fmt"
	"time"
)

// Config holds the engine's protocol parameters. Zero value is invalid; use
// DefaultConfig as a base.
type Config struct {
	// MinRoundDelay paces rounds of partly filled headers. A round missing
	// a validator's certificate is left no earlier than MinRoundDelay after
	// the validator's own last proposal, unless certificates worth f+1 stake
	// already exist at the next round (it is late). A whole round — every
	// validator's certificate in — is paced by period, four rounds by round
	// number: round r ≡ 1 (mod 4) is the batch round, r ≡ 2 its anchor and
	// r ≡ 3 the vote that commits that anchor, each left at once when whole,
	// and a round ≡ 0 is left MinRoundDelay after the validator held
	// batch-round headers worth f+1 stake, its own counted once proposed. A
	// full batch (MaxBatchTx transactions) and the f+1 rule still open any
	// whole round. See Engine.pacingOpen. So a committee that keeps up sends
	// one batch per floor, and each batch commits three round trips after it
	// is proposed; with a validator down no round is whole and the floor
	// paces every round. A floor on the round time that batches transactions
	// — Narwhal's min_header_delay, not its max_header_delay: nothing here
	// forces a header out, a round still waits for its quorum of
	// certificates. 0 disables pacing.
	MinRoundDelay time.Duration
	// LeaderTimeout bounds the wait for the anchor certificate when leaving
	// an anchor round. This is the cost a crashed leader inflicts per anchor
	// round — the quantity HammerHead's scheduling removes.
	LeaderTimeout time.Duration
	// MaxBatchTx caps transactions per header, and a header's worth of them
	// lifts the MinRoundDelay floor. So while the whole committee keeps up
	// it is no throughput cap: under backlog, full headers go out at the
	// pace of certification.
	MaxBatchTx int
	// VerifySignatures decides whether New builds the validator's pre-verify
	// stage (Engine.PreVerifier), the one check of header, vote and
	// certificate signatures; without it none of those is verified.
	// Simulations of crash-only deployments turn it off (see internal/crypto).
	// Checkpoint shares and certificates are verified either way.
	VerifySignatures bool
	// GCDepth is how many rounds below the committer's floor are retained
	// before pruning. Pruning runs after every gcEvery commits.
	GCDepth uint64
}

// Protocol constants. Each is the same on every validator: they are not
// settings.
const (
	// gcEvery is how many commits pass between two prunings.
	gcEvery = 16
	// maxSyncBatch caps the certificates in a round pull's reply. A round
	// must fit in one (New refuses a larger committee): the pull is the only
	// way to fetch a missing parent.
	maxSyncBatch = 512
	// gapThreshold is how far above the highest round it holds a validator
	// keeps a certificate that arrived before its parents. One further up
	// is not kept: it only starts a catch-up pull.
	gapThreshold = 8
	// snapshotChunkBytes caps the payload of one SnapshotResponse during
	// state-sync: small enough that serving a chunk never monopolizes the
	// engine loop, large enough that realistic snapshots move in a handful
	// of round-trips.
	snapshotChunkBytes = 256 << 10
)

// resyncInterval paces round pulls — a pull from the same round as the last
// one waits it out — header re-broadcasts and the progress watchdog: the
// leader wait, at most a second (a second for every LeaderTimeout of 1 s and
// more). The watchdog fires every two of them, re-pulls for the certificates
// still waiting for parents, and while the engine rejoins after a crash each
// firing re-broadcasts the rejoin pull until replies from a write quorum
// came back, forever — a committee below quorum cannot progress anyway, so
// retrying until peers return is the only correct behavior.
func (c Config) resyncInterval() time.Duration {
	return min(c.LeaderTimeout, time.Second)
}

// DefaultConfig returns the defaults every runtime starts from
// (hammerhead-node's flags included); the simulated experiments override the
// pacing knobs per scenario.
func DefaultConfig() Config {
	return Config{
		MinRoundDelay:    50 * time.Millisecond,
		LeaderTimeout:    2 * time.Second,
		MaxBatchTx:       500,
		VerifySignatures: true,
		GCDepth:          50,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinRoundDelay < 0 || c.LeaderTimeout <= 0 {
		return fmt.Errorf("engine: MinRoundDelay must be >= 0 and LeaderTimeout > 0 (round=%v leader=%v)",
			c.MinRoundDelay, c.LeaderTimeout)
	}
	if c.MaxBatchTx < 1 {
		return fmt.Errorf("engine: MaxBatchTx must be >= 1, got %d", c.MaxBatchTx)
	}
	if c.GCDepth == 0 {
		return fmt.Errorf("engine: GCDepth must be positive")
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
	// TimerHeaderRetry re-broadcasts the current header if it has not
	// certified yet (lost broadcast, peers restarting, recovery replay).
	TimerHeaderRetry
	// TimerProgress periodically checks for round progress; when none
	// happened since the previous firing, the engine pulls the certificate
	// frontier from a rotating peer (RoundRequest), and while certificates
	// wait for parents it pulls from the round below the lowest of them: the
	// one retry of a lost pull. While the engine rejoins after a crash, every
	// firing broadcasts the rejoin pull instead, round progress or not (peers
	// may still be restarting themselves).
	TimerProgress
	// TimerSnapshot paces an active snapshot state-sync fetch: when no chunk
	// arrived since it was armed, the request is retried, eventually rotating
	// to another responder (restarting the fetch at chunk zero of the same
	// checkpoint — chunk encodings are not byte-compatible across
	// responders).
	TimerSnapshot
	// TimerWaveDelay is the period timer: armed once the validator holds
	// headers worth f+1 stake of a batch round r ≡ 1 (mod 4), it fires
	// MinRoundDelay later, and Round is r+3, the round ≡ 0 it lets the
	// validator leave once whole: one batch round per floor.
	TimerWaveDelay
)

// String implements fmt.Stringer.
func (k TimerKind) String() string {
	switch k {
	case TimerLeader:
		return "leader"
	case TimerRoundDelay:
		return "round-delay"
	case TimerWaveDelay:
		return "wave-delay"
	case TimerHeaderRetry:
		return "header-retry"
	case TimerProgress:
		return "progress"
	case TimerSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("timer(%d)", uint8(k))
	}
}

// Timer is a request to be called back after Delay. Round scopes leader and
// round-delay timers to the round they were armed for, and the period timer
// to the round it opens, so stale firings are ignored.
type Timer struct {
	Kind  TimerKind
	Round uint64
	Delay time.Duration
}
