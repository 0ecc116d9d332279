// Package replica implements HammerHead's non-voting read tier: a node that
// holds no key, casts no vote and feeds no mempool, yet serves reads whose
// trust reduces entirely to the validator quorum.
//
// A replica's life cycle:
//
//  1. Bootstrap — fetch a certified snapshot blob (GET /v1/snapshot) from any
//     validator, verify the embedded 2f+1 checkpoint certificate against the
//     committee, restore the KV state and recompute its digest. A forged or
//     uncertified blob is rejected before it touches state.
//  2. Tail — subscribe to the gateway commit stream with ?full=1 and
//     re-execute every commit's payloads locally, chaining
//     H(prev, commit digest) exactly like the validators' executors do.
//  3. Cross-check — the same stream pushes each quorum certificate as the
//     validator attaches it (a checkpoint event). The replica verifies it
//     against the committee, dropping a forged one, and once it has
//     re-executed the certified sequence — at once, or when that commit
//     arrives — compares both the chained root and the re-executed state
//     digest against the certified tuple. A match promotes that sequence's
//     frozen state to the certified read view (served with Merkle proofs on
//     ?proof=1), pushes the certificate on to the replica's own ?full=1
//     subscribers, and releases the frozen states at and below it, which no
//     later certificate can promote: the replica holds views for its
//     uncertified tail only. A mismatch means the stream this replica tailed
//     is NOT the quorum's history — the replica poisons itself and stops
//     serving rather than serve lies.
//
// Because step 3 verifies recomputed state against quorum signatures, a
// malicious or buggy serving validator cannot feed a replica fabricated
// commits without detection at the next checkpoint boundary.
package replica

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/execution"
	"hammerhead/internal/obs"
	"hammerhead/internal/rpc"
	"hammerhead/internal/types"
	"hammerhead/pkg/client"
	"hammerhead/pkg/rpcapi"
)

// Defaults for Config zero values.
const (
	// DefaultRingSize is how many recent re-executed commits the replica
	// retains for certificate cross-checks and RootAt: the chained root of
	// each, plus the frozen state of those above the certified sequence. It
	// must cover at least one checkpoint interval of commits, or
	// certificates land past the ring and never promote.
	DefaultRingSize = 512
	// bootstrapBackoff paces snapshot retries while the cluster has not
	// certified a checkpoint yet.
	bootstrapBackoff = 250 * time.Millisecond
)

// Config parameterizes a Replica.
type Config struct {
	// Validators are the validator gateway endpoints the replica bootstraps
	// from, tails, and redirects submissions to. At least one is required.
	Validators []string
	// Verifier is the committee trust anchor (stake distribution + public
	// keys) every certificate is checked against. Required — a replica
	// without it would have to trust its upstream, defeating the point.
	Verifier *client.Verifier
	// RPCAddr is the replica's own serving address (":0" for ephemeral;
	// "" disables serving — a tail-only auditor).
	RPCAddr string
	// RingSize overrides the retained re-execution history
	// (0 = DefaultRingSize).
	RingSize int
	// Logger, when non-nil, receives structured progress and divergence
	// reports (slog, component=replica). Nil keeps the replica silent.
	Logger *slog.Logger
}

// ringEntry is one re-executed commit: the roots the replica derived and,
// while a certificate could still promote it (seq above the certified one),
// the frozen state view it would serve proofs from.
type ringEntry struct {
	seq         uint64
	round       uint64
	chainedRoot types.Digest
	stateDigest types.Digest
	frozen      *execution.FrozenKV
}

// Replica is one read-tier node. Build with New, seed with Bootstrap (or
// BootstrapFromBlob), then Start; Close is idempotent.
type Replica struct {
	cfg Config
	cli *client.Client
	gw  *rpc.Gateway
	// logger is never nil; a nop handler substitutes when Config.Logger is
	// unset.
	logger *slog.Logger

	mu           sync.Mutex
	kv           *execution.KVState
	appliedSeq   uint64                  // guarded by mu
	appliedRound uint64                  // guarded by mu
	chainedRoot  types.Digest            // guarded by mu
	ring         []ringEntry             // guarded by mu; ascending seq, len <= RingSize
	certified    *checkpoint.Certificate // guarded by mu
	certifiedKV  *execution.FrozenKV     // guarded by mu
	// held is the newest verified certificate for a sequence not
	// re-executed yet: it is cross-checked when that commit is applied.
	held     *checkpoint.Certificate // guarded by mu
	poisoned error                   // guarded by mu; non-nil is terminal

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed sync.Once
}

// New validates the configuration, builds the upstream client and — when
// RPCAddr is set — binds the replica's own gateway (reads served locally,
// submissions 307-redirected to the validators).
func New(cfg Config) (*Replica, error) {
	if len(cfg.Validators) == 0 {
		return nil, errors.New("replica: at least one validator endpoint is required")
	}
	if cfg.Verifier == nil {
		return nil, errors.New("replica: a committee Verifier is required (trustless by construction)")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	cli, err := client.New(client.Config{Endpoints: cfg.Validators})
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:    cfg,
		cli:    cli,
		kv:     execution.NewKVState(),
		logger: obs.Component(cfg.Logger, "replica"),
	}
	if cfg.RPCAddr != "" {
		gw, err := rpc.New(rpc.Config{
			Addr:           cfg.RPCAddr,
			RedirectSubmit: append([]string(nil), cfg.Validators...),
			ReadKV:         r.readKV,
			ProvenRead:     r.ProvenRead,
			Checkpoint:     r.Certificate,
			Status:         r.status,
			RootAt:         r.RootAt,
		})
		if err != nil {
			return nil, err
		}
		r.gw = gw
	}
	return r, nil
}

// Addr returns the replica gateway's bound address ("" when serving is
// disabled).
func (r *Replica) Addr() string {
	if r.gw == nil {
		return ""
	}
	return r.gw.Addr()
}

// Bootstrap fetches a certified snapshot from the validators — retrying
// until one exists or ctx is done — verifies it and installs it. Must
// complete before Start.
func (r *Replica) Bootstrap(ctx context.Context) error {
	for {
		blob, err := r.cli.Snapshot(ctx)
		if err == nil {
			if err := r.BootstrapFromBlob(blob); err != nil {
				return err
			}
			return nil
		}
		if !errors.Is(err, client.ErrNoSnapshot) && ctx.Err() == nil {
			r.logger.Warn("snapshot fetch failed", "err", err)
		}
		select {
		case <-time.After(bootstrapBackoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// BootstrapFromBlob verifies and installs one snapshot blob: the embedded
// certificate must cover exactly the blob's checkpoint tuple and carry 2f+1
// valid committee signatures, and the restored state must reproduce the
// certified digest. Nothing the responder claims is trusted. A blob no newer
// than the replica's applied state is rejected.
func (r *Replica) BootstrapFromBlob(blob []byte) error {
	snap, err := execution.DecodeSnapshot(blob)
	if err != nil {
		return err
	}
	if snap.Cert == nil {
		return fmt.Errorf("replica: snapshot at seq %d carries no checkpoint certificate", snap.CommitSeq)
	}
	want := checkpoint.Meta{
		Round:       snap.Round,
		CommitSeq:   snap.CommitSeq,
		StateRoot:   snap.StateRoot,
		StateDigest: snap.StateDigest,
		SchedDigest: checkpoint.SchedDigestOf(snap.SchedulerState),
	}
	if !snap.Cert.Matches(want) {
		return fmt.Errorf("replica: certificate does not cover the snapshot tuple at seq %d", snap.CommitSeq)
	}
	if err := r.cfg.Verifier.VerifyCert(snap.Cert); err != nil {
		return fmt.Errorf("replica: snapshot certificate rejected: %w", err)
	}
	kv := execution.NewKVState()
	if err := kv.Restore(snap.Data); err != nil {
		return fmt.Errorf("replica: restoring snapshot: %w", err)
	}
	if got := kv.Root(); got != snap.StateDigest {
		return fmt.Errorf("replica: restored state digest %s does not match certified %s", got, snap.StateDigest)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if snap.CommitSeq <= r.appliedSeq && r.appliedSeq != 0 {
		return execution.ErrStaleSnapshot
	}
	frozen := kv.Freeze()
	r.kv = kv
	r.appliedSeq = snap.CommitSeq
	r.appliedRound = uint64(snap.Round)
	r.chainedRoot = snap.StateRoot
	r.certified = snap.Cert
	r.certifiedKV = frozen
	if r.held != nil && r.held.Meta.CommitSeq <= snap.CommitSeq {
		r.held = nil
	}
	if r.gw != nil {
		r.gw.ObserveCheckpoint()
	}
	clear(r.ring) // the abandoned entries' views must not outlive them
	r.ring = append(r.ring[:0], ringEntry{
		seq:         snap.CommitSeq,
		round:       uint64(snap.Round),
		chainedRoot: snap.StateRoot,
		stateDigest: snap.StateDigest,
	})
	r.logger.Info("bootstrapped from certified snapshot", "seq", snap.CommitSeq, "round", snap.Round)
	return nil
}

// Start begins serving (when a gateway is configured) and spawns the tail
// loop. Call after a successful Bootstrap.
func (r *Replica) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	if r.gw != nil {
		r.gw.Start()
	}
	r.wg.Add(1)
	go r.tailLoop(ctx)
}

// Close stops the loops and the gateway. Idempotent.
func (r *Replica) Close() {
	r.closed.Do(func() {
		if r.cancel != nil {
			r.cancel()
		}
		r.wg.Wait()
		if r.gw != nil {
			_ = r.gw.Close()
		}
	})
}

// Err returns the divergence error once the replica has poisoned itself
// (nil while healthy). A poisoned replica stops serving reads.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.poisoned
}

// AppliedSeq returns the last re-executed commit sequence.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedSeq
}

// ChainedRoot returns the replica's chained commit root at AppliedSeq.
func (r *Replica) ChainedRoot() types.Digest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chainedRoot
}

// Certificate returns the newest quorum certificate the replica has
// cross-checked its own re-execution against.
func (r *Replica) Certificate() (*checkpoint.Certificate, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.certified == nil || r.poisoned != nil {
		return nil, false
	}
	return r.certified, true
}

// errResync asks the tail loop to re-bootstrap: the stream jumped past a
// commit this replica never saw (gateway ring aged out), so re-execution
// can no longer follow.
var errResync = errors.New("replica: commit stream gap, re-bootstrapping")

// ApplyCommitEvent re-executes one full commit event. Events must arrive in
// exactly ascending, contiguous order; a gap returns an error (the tail loop
// re-bootstraps), and an event without digest or payload integrity poisons
// only at the next certificate cross-check — the event itself is applied
// optimistically, which is safe precisely because nothing is served from it
// until a quorum certificate confirms the recomputed roots. A held
// certificate whose sequence this event reaches is cross-checked here, so an
// event can also return the error that poisoned the replica.
func (r *Replica) ApplyCommitEvent(ev rpcapi.CommitEvent) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.poisoned != nil {
		return r.poisoned
	}
	if ev.Seq <= r.appliedSeq {
		return nil // replayed event (stream resume overlap)
	}
	if ev.Seq != r.appliedSeq+1 {
		return errResync
	}
	if ev.CommitDigest == "" {
		return fmt.Errorf("replica: commit %d carries no digest (upstream too old?)", ev.Seq)
	}
	cdRaw, err := hex.DecodeString(ev.CommitDigest)
	if err != nil || len(cdRaw) != types.DigestSize {
		return fmt.Errorf("replica: commit %d digest malformed", ev.Seq)
	}
	for _, p := range ev.Payloads {
		tx := types.Transaction{Payload: p}
		r.kv.Apply(&tx)
	}
	r.chainedRoot = types.HashBytes(r.chainedRoot[:], cdRaw)
	r.appliedSeq = ev.Seq
	r.appliedRound = ev.Round
	entry := ringEntry{
		seq:         ev.Seq,
		round:       ev.Round,
		chainedRoot: r.chainedRoot,
		stateDigest: r.kv.Root(),
		frozen:      r.kv.Freeze(),
	}
	if len(r.ring) >= r.cfg.RingSize {
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
	}
	r.ring = append(r.ring, entry)
	if r.gw != nil {
		// Re-serve the stream onward (payloads included), so replicas can
		// chain off replicas.
		r.gw.ObserveEvent(ev)
	}
	if held := r.held; held != nil && held.Meta.CommitSeq <= r.appliedSeq {
		r.held = nil
		return r.crossCheckLocked(held)
	}
	return nil
}

// CrossCheck compares one verified quorum certificate against the replica's
// own re-execution at the certified sequence. A match promotes that
// sequence's frozen state to the certified read view; a mismatch poisons the
// replica — its stream upstream served a history the quorum did not execute.
// A certificate ahead of the re-execution is held (the newest one only) and
// checked once ApplyCommitEvent reaches its sequence. Certificates for
// sequences no longer retained are skipped without effect. The caller must
// have verified the certificate's signatures.
func (r *Replica) CrossCheck(cert *checkpoint.Certificate) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crossCheckLocked(cert)
}

func (r *Replica) crossCheckLocked(cert *checkpoint.Certificate) error {
	if r.poisoned != nil {
		return r.poisoned
	}
	seq := cert.Meta.CommitSeq
	if r.certified != nil && seq <= r.certified.Meta.CommitSeq {
		return nil
	}
	if seq > r.appliedSeq {
		if r.held == nil || seq > r.held.Meta.CommitSeq {
			r.held = cert
		}
		return nil
	}
	var entry *ringEntry
	for i := range r.ring {
		if r.ring[i].seq == seq {
			entry = &r.ring[i]
			break
		}
	}
	if entry == nil {
		return nil // aged out of the ring before a certificate arrived
	}
	if entry.chainedRoot != cert.Meta.StateRoot || entry.stateDigest != cert.Meta.StateDigest {
		r.poisoned = fmt.Errorf(
			"replica: DIVERGENCE at seq %d: re-executed (root %s, digest %s) vs certified (root %s, digest %s) — upstream fed a stream the quorum did not execute",
			seq, entry.chainedRoot, entry.stateDigest, cert.Meta.StateRoot, cert.Meta.StateDigest)
		r.certified = nil
		r.certifiedKV = nil
		r.logger.Error("divergence detected; replica poisoned", "err", r.poisoned)
		return r.poisoned
	}
	r.certified = cert
	r.certifiedKV = entry.frozen
	// Nothing at or below seq can be promoted again: keep those entries'
	// roots for RootAt, release their views.
	for i := range r.ring {
		if r.ring[i].seq > seq {
			break
		}
		r.ring[i].frozen = nil
	}
	if r.gw != nil {
		// Push it on, so replicas tailing this one promote it too.
		r.gw.ObserveCheckpoint()
	}
	return nil
}

// onCheckpoint takes one certificate the stream pushed. A malformed or
// forged one proves nothing about upstream: it is logged and dropped, and
// the replica carries on. A verified one is cross-checked (or held), and only
// a contradiction — which poisons — stops the stream.
func (r *Replica) onCheckpoint(w rpcapi.CheckpointCert) error {
	cert, err := rpcapi.CertFromWire(w)
	if err != nil {
		r.logger.Warn("malformed certificate", "err", err)
		return nil
	}
	if err := r.cfg.Verifier.VerifyCert(cert); err != nil {
		r.logger.Warn("certificate rejected", "seq", cert.Meta.CommitSeq, "err", err)
		return nil
	}
	return r.CrossCheck(cert)
}

// ProvenRead serves proof-carrying reads from the replica's last
// cross-checked state — the same contract as the executor's
// (execution.ProvenKV), so the gateway and client verify both identically.
func (r *Replica) ProvenRead(key []byte) (execution.ProvenKV, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.poisoned != nil || r.certified == nil || r.certifiedKV == nil {
		return execution.ProvenKV{}, false
	}
	version, opaque := r.certifiedKV.Counters()
	return execution.ProvenKV{
		Proof:   r.certifiedKV.Prove(key),
		Version: version,
		Opaque:  opaque,
		Cert:    r.certified,
	}, true
}

// readKV serves plain (uncertified-tail) reads from the re-executed state.
func (r *Replica) readKV(key []byte) (execution.KVRead, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.poisoned != nil {
		return execution.KVRead{}, false
	}
	read := execution.KVRead{
		AppliedSeq: r.appliedSeq,
		Round:      types.Round(r.appliedRound),
		StateRoot:  r.chainedRoot,
	}
	read.Value, read.Version, read.Found = r.kv.GetVersioned(key)
	return read, true
}

// RootAt returns the replica's chained root at a retained sequence.
func (r *Replica) RootAt(seq uint64) (types.Digest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ring {
		if r.ring[i].seq == seq {
			return r.ring[i].chainedRoot, true
		}
	}
	return types.Digest{}, false
}

func (r *Replica) status() rpc.StatusResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := rpc.StatusResponse{
		Replica:      true,
		AppliedSeq:   r.appliedSeq,
		AppliedRound: r.appliedRound,
		StateRoot:    hex.EncodeToString(r.chainedRoot[:]),
	}
	return resp
}

// tailLoop streams full commits and pushed certificates from the
// validators, re-executes the commits and cross-checks the certificates,
// re-bootstrapping whenever the stream gaps past retained history.
func (r *Replica) tailLoop(ctx context.Context) {
	defer r.wg.Done()
	for ctx.Err() == nil {
		from := r.AppliedSeq()
		err := r.cli.StreamCommitsFull(ctx, from, r.ApplyCommitEvent, r.onCheckpoint)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errResync) {
			r.logger.Warn("resync required", "err", err)
			if berr := r.Bootstrap(ctx); berr != nil && ctx.Err() == nil {
				r.logger.Error("re-bootstrap failed", "err", berr)
			}
			continue
		}
		if err != nil && r.Err() != nil {
			return // poisoned: stop tailing
		}
		select {
		case <-time.After(bootstrapBackoff):
		case <-ctx.Done():
			return
		}
	}
}
