// Package validator is the one place a HammerHead validator is assembled —
// mempool, DAG, leader scheduler, executor and engine — and the one place it
// is recovered from its durable record: its Log and, beside it, the snapshot
// store its checkpoints are saved to. Both runtimes build through it:
// internal/node on goroutines and the wall clock, internal/simnet in virtual
// time. It starts no goroutine and reads no clock; the runtime drives the
// engine it returns.
package validator

import (
	"fmt"
	"sync/atomic"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/mempool"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
)

// Config is what a runtime chooses about one validator.
type Config struct {
	Committee *types.Committee
	Self      types.ValidatorID
	// Keys signs protocol messages; PublicKeys verifies peers (indexed by
	// validator ID).
	Keys       crypto.KeyPair
	PublicKeys []crypto.PublicKey
	Engine     engine.Config
	// HammerHead, when non-nil, schedules leaders by reputation with this
	// configuration; nil runs the round-robin baseline.
	HammerHead *core.Config
	// ScheduleSeed seeds the initial schedule permutation under either
	// scheduler (must match across the committee).
	ScheduleSeed uint64
	Mempool      mempool.FairConfig
	// Execution configures the validator's deterministic KV executor. Every
	// install it makes restores the engine's scheduler from the snapshot, or
	// is refused. CertVerifier is filled in here: with CheckpointCerts a
	// remote snapshot must carry a certificate that verifies against the
	// committee. With a log, so is Store, and OnCheckpoint runs after the
	// log's compaction (see New).
	Execution execution.Config
	// Commits receives ordered sub-DAGs; Observer sees inserted certificates
	// and own headers (see engine.Params) once the validator is live (see
	// Replaying).
	Commits  engine.CommitSink
	Observer engine.Observer
}

// Validator is one assembled validator.
type Validator struct {
	Engine *engine.Engine
	Pool   *mempool.FairPool
	// Executor applies the commit stream and cuts the checkpoints.
	Executor *execution.Executor

	// log and store are the durable record (nil: none). store holds the
	// executor's checkpoints, beside the log it compacts.
	log      *Log
	store    *storage.SnapshotStore
	self     types.ValidatorID
	observer engine.Observer
	// replaying is set from New until Recover or Init puts the validator on
	// the wire: a certificate handed to the engine before then is not
	// recorded, and a commit is not news.
	replaying atomic.Bool
	// maxBatch is the engine's MaxBatchTx; below says the pending count was
	// under it at the last admission, which arms the next fill.
	maxBatch int
	below    atomic.Bool
}

// New assembles a validator over its durable record, not yet live. Recover —
// or Init, for a validator booting for the first time — puts it on the wire.
//
// log, when non-nil, is the validator's log; the runtime writes it from the
// Observer. The executor's checkpoints are saved in a snapshot store beside
// it (<log path>.snapshots) and each saved one compacts the log to its floor,
// before the runtime's own OnCheckpoint runs: a log is compacted only against
// checkpoints a restart finds. Without a log, no checkpoint is saved.
func New(cfg Config, log *Log) (*Validator, error) {
	if cfg.Committee == nil {
		return nil, fmt.Errorf("validator: committee is required")
	}
	d := dag.New(cfg.Committee)
	var sched leader.Scheduler
	if cfg.HammerHead != nil {
		m, err := core.NewManager(cfg.Committee, d, *cfg.HammerHead, cfg.ScheduleSeed)
		if err != nil {
			return nil, fmt.Errorf("validator: building HammerHead scheduler: %w", err)
		}
		sched = m
	} else {
		sched = leader.NewRoundRobin(cfg.Committee, cfg.ScheduleSeed)
	}
	v := &Validator{
		Pool:     mempool.NewFair(cfg.Mempool),
		log:      log,
		self:     cfg.Self,
		observer: cfg.Observer,
		maxBatch: cfg.Engine.MaxBatchTx,
	}
	v.below.Store(true)
	v.replaying.Store(true)
	params := engine.Params{
		Config:     cfg.Engine,
		Committee:  cfg.Committee,
		Self:       cfg.Self,
		Keys:       cfg.Keys,
		PublicKeys: cfg.PublicKeys,
		Batches:    v.Pool,
		Scheduler:  sched,
		DAG:        d,
		Commits:    cfg.Commits,
	}
	if cfg.Observer != nil {
		params.Observer = liveObserver{cfg.Observer, v}
	}
	xc := cfg.Execution
	if xc.CheckpointCerts {
		if len(cfg.PublicKeys) != cfg.Committee.Size() {
			return nil, fmt.Errorf("validator: checkpoint certification needs all %d public keys (have %d)",
				cfg.Committee.Size(), len(cfg.PublicKeys))
		}
		xc.CertVerifier = func(cert *checkpoint.Certificate) error {
			return cert.Verify(cfg.Committee, cfg.PublicKeys, cfg.Keys.Scheme)
		}
	}
	if log != nil {
		store, err := storage.NewSnapshotStore(log.path + ".snapshots")
		if err != nil {
			return nil, fmt.Errorf("validator: opening snapshot store: %w", err)
		}
		v.store, xc.Store = store, store
		hook := xc.OnCheckpoint
		xc.OnCheckpoint = func(snap execution.Snapshot) {
			log.Checkpointed(snap.Floor)
			if hook != nil {
				hook(snap)
			}
		}
	}
	v.Executor = execution.NewExecutor(execution.NewKVState(), xc)
	params.Execution = v.Executor
	eng, err := engine.New(params)
	if err != nil {
		return nil, fmt.Errorf("validator: building engine: %w", err)
	}
	v.Engine = eng
	return v, nil
}

// Submit admits tx to the mempool's default lane and reports whether it
// filled a batch: the pending count, carried transactions included, reached
// the engine's MaxBatchTx from below. The runtime then hands the engine
// OnBatchFull on the engine's goroutine — node as a task on its loop, simnet
// at once — so the full batch is proposed without waiting for the engine's
// next message or timer. Safe for concurrent use.
func (v *Validator) Submit(tx types.Transaction) (filled bool, err error) {
	if err := v.Pool.Submit(tx); err != nil {
		return false, err
	}
	return v.filled(), nil
}

// SubmitClient is Submit on the client's admission lane.
func (v *Validator) SubmitClient(client string, tx types.Transaction) (filled bool, err error) {
	if err := v.Pool.SubmitClient(client, tx); err != nil {
		return false, err
	}
	return v.filled(), nil
}

// filled reports whether the admission just made crossed MaxBatchTx: once
// per crossing, however many submitters race to it.
func (v *Validator) filled() bool {
	if v.Pool.Pending()+v.Engine.Carried() < v.maxBatch {
		v.below.Store(true)
		return false
	}
	return v.below.CompareAndSwap(true, false)
}

// Replaying reports whether the validator is not live yet — Recover is
// rebuilding it from its record, or neither Recover nor Init has run: a
// commit delivered now is re-derived, not news. Safe for concurrent use.
func (v *Validator) Replaying() bool { return v.replaying.Load() }

// liveObserver is Config.Observer with Inserted and Proposed withheld until
// the validator is live: a replayed certificate is already in the record, a
// header built during replay is recorded by Recover if it goes out — not
// durable until then, so it cannot certify — and the record is not open
// before Recover or Init opens it. This is the one check that keeps a runtime
// from appending to its record while replaying it.
type liveObserver struct {
	engine.Observer
	v *Validator
}

func (o liveObserver) Inserted(cert *engine.Certificate) {
	if !o.v.replaying.Load() {
		o.Observer.Inserted(cert)
	}
}

func (o liveObserver) Proposed(h *engine.Header) bool {
	return !o.v.replaying.Load() && o.Observer.Proposed(h)
}

// Init puts a freshly assembled validator that has no durable record on the
// wire: its first boot. The log, if any, is opened for appending first,
// created if absent; nothing in it is replayed. It returns the engine's first
// output for dispatch.
func (v *Validator) Init(now int64) (*engine.Output, error) {
	if v.log != nil {
		if err := v.log.replay(nil, nil); err != nil {
			return nil, err
		}
	}
	v.replaying.Store(false)
	return v.Engine.Init(now), nil
}

// Recover brings a freshly assembled validator back from its durable record
// and puts it on the wire. Every runtime recovers in this one order, with
// Replaying set until step 5:
//
//  1. the latest checkpoint in the store beside the log is installed — the
//     ledger and the scheduler's state together — and the engine
//     fast-forwarded to it, so certificates below the checkpoint's
//     floor, compacted out of the log, are covered and a validator that
//     slept past the committee's GC horizon resumes from its own state;
//  2. Init unlocks proposing and builds a first header;
//  3. the log (none: nothing recorded) replays its intact prefix — the
//     recorded certificates through engine.OnRecorded, which verifies no
//     signature the validator verified before recording it, collecting the
//     highest own proposal — and opens for appending, trimmed to that prefix;
//     commits are re-derived and delivered to the sink within the replayed
//     step, and every output is discarded: nothing transmits during recovery;
//  4. RestoreProposal re-adopts that proposal, the voted-round mark, so the
//     validator re-transmits the header it signed instead of equivocating
//     the slot;
//  5. Replaying clears: the observer records again, and commits are fresh;
//  6. Init's header goes unless replay moved the engine past it, and the
//     current proposal is recorded (Observer.Proposed) unless it is the
//     restored one, already in the record;
//  7. Init's output — followed by the engine's OnProposalDurable's if the
//     observer reported the record durable at once; an observer that writes
//     later reports it to the engine itself — then the crash-rejoin
//     handshake's (StartRejoin), go to dispatch.
//
// now is read at every step. A checkpoint the executor or the scheduler
// refuses returns at step 1 with the executor untouched, and a replay error
// before step 4; either way nothing is transmitted and nothing recorded.
func (v *Validator) Recover(now func() int64, dispatch func(*engine.Output)) error {
	eng := v.Engine
	if v.store != nil {
		if snap, ok := v.store.Latest(); ok {
			meta, install, err := v.Executor.InstallLocal(snap, eng.Scheduler().RestoreState)
			if err != nil {
				return fmt.Errorf("validator: installing the checkpoint at seq %d: %w", snap.CommitSeq, err)
			}
			eng.FastForwardToSnapshot(meta, install, now())
		}
	}
	initOut := eng.Init(now())
	if v.log != nil {
		var last *engine.Header
		err := v.log.replay(func(cert *engine.Certificate) error {
			eng.OnRecorded(cert, now())
			return nil
		}, func(h *engine.Header) error {
			if h.Source == v.self && (last == nil || h.Round > last.Round) {
				last = h
			}
			return nil
		})
		if err != nil {
			return err
		}
		eng.RestoreProposal(last)
	}
	v.replaying.Store(false)
	// Init ran before replay: when the log moved the engine past that first
	// proposal, its queued broadcast is a stale header for an already-signed
	// slot — transmitting it would look like (and be refused as) slot
	// equivocation by peers that voted pre-crash.
	cur := eng.CurrentProposal()
	kept := initOut.Broadcasts[:0]
	for _, m := range initOut.Broadcasts {
		if m.Kind != engine.KindHeader || m.Header == cur {
			kept = append(kept, m)
		}
	}
	initOut.Broadcasts = kept
	if cur != nil && cur.Round > eng.ProposalFloor() && v.observer != nil && v.observer.Proposed(cur) {
		// Built while the record was suppressed and about to go on the wire:
		// recorded now, and certified only once the record is durable — here
		// at once, after the header in dispatch order.
		durable := eng.OnProposalDurable(cur.Round, now())
		initOut.Unicasts = append(initOut.Unicasts, durable.Unicasts...)
		initOut.Broadcasts = append(initOut.Broadcasts, durable.Broadcasts...)
		initOut.Timers = append(initOut.Timers, durable.Timers...)
	}
	dispatch(initOut)
	// Proposals made and timers armed while replaying were never transmitted;
	// on a correlated restart the committee would wedge at its pre-crash
	// round without the handshake (see engine.StartRejoin).
	dispatch(eng.StartRejoin(now()))
	return nil
}
