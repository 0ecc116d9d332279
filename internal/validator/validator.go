// Package validator is the one place a HammerHead validator is assembled —
// mempool, DAG, leader scheduler, executor and engine — and the one place it
// is recovered from its durable record. Both runtimes build through it:
// internal/node on goroutines and the wall clock, internal/simnet in virtual
// time. It starts no goroutine and reads no clock; the runtime drives the
// engine it returns.
package validator

import (
	"fmt"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/mempool"
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
	// Execution, when non-nil, attaches a deterministic KV executor built
	// with it. RequireSchedulerState and CertVerifier are filled in here: a
	// HammerHead validator never installs a snapshot without the schedule it
	// was cut under, and with CheckpointCerts a remote snapshot must carry a
	// certificate that verifies against the committee.
	Execution *execution.Config
	// Commits receives ordered sub-DAGs; Observer sees inserted certificates
	// and own headers (see engine.Params).
	Commits  engine.CommitSink
	Observer engine.Observer
}

// Validator is one assembled validator.
type Validator struct {
	Engine *engine.Engine
	Pool   *mempool.FairPool
	// Executor is nil without Config.Execution.
	Executor *execution.Executor

	self     types.ValidatorID
	observer engine.Observer
}

// New assembles a validator. Recover — or Engine.Init, for a validator that
// has no durable record — puts it on the wire.
func New(cfg Config) (*Validator, error) {
	if cfg.Committee == nil {
		return nil, fmt.Errorf("validator: committee is required")
	}
	d := dag.New(cfg.Committee)
	var sched leader.Scheduler
	if cfg.HammerHead != nil {
		hh := *cfg.HammerHead
		hh.Seed = cfg.ScheduleSeed
		m, err := core.NewManager(cfg.Committee, d, hh)
		if err != nil {
			return nil, fmt.Errorf("validator: building HammerHead scheduler: %w", err)
		}
		sched = m
	} else {
		sched = leader.NewRoundRobin(cfg.Committee, cfg.ScheduleSeed)
	}
	v := &Validator{
		Pool:     mempool.NewFair(cfg.Mempool),
		self:     cfg.Self,
		observer: cfg.Observer,
	}
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
		Observer:   cfg.Observer,
	}
	if cfg.Execution != nil {
		xc := *cfg.Execution
		xc.RequireSchedulerState = cfg.HammerHead != nil
		if xc.CheckpointCerts {
			if len(cfg.PublicKeys) != cfg.Committee.Size() {
				return nil, fmt.Errorf("validator: checkpoint certification needs all %d public keys (have %d)",
					cfg.Committee.Size(), len(cfg.PublicKeys))
			}
			xc.CertVerifier = func(cert *checkpoint.Certificate) error {
				return cert.Verify(cfg.Committee, cfg.PublicKeys, cfg.Keys.Scheme)
			}
		}
		v.Executor = execution.NewExecutor(execution.NewKVState(), xc)
		params.Execution = v.Executor
	}
	eng, err := engine.New(params)
	if err != nil {
		return nil, fmt.Errorf("validator: building engine: %w", err)
	}
	v.Engine = eng
	return v, nil
}

// Replay feeds recovery a validator's recorded log: every certificate it
// inserted to cert and every header it proposed to proposal, in recorded
// order. Either callback's error ends the replay with it.
type Replay func(cert func(*engine.Certificate) error, proposal func(*engine.Header) error) error

// Recover brings a freshly assembled validator back from its durable record
// and puts it on the wire. Every runtime recovers in this one order:
//
//  1. the executor's latest local checkpoint is installed and the engine
//     fast-forwarded to it, so certificates below the checkpoint's floor are
//     covered and a validator that slept past the committee's GC horizon
//     resumes from its own state;
//  2. Init unlocks proposing and builds a first header;
//  3. replay (nil: nothing recorded) feeds the recorded certificates through
//     the normal message path and collects the highest own proposal — commits
//     are re-derived, and every output is discarded: nothing transmits
//     during recovery;
//  4. RestoreProposal re-adopts that proposal, the voted-round mark, so the
//     validator re-transmits the header it signed instead of equivocating
//     the slot;
//  5. Flush delivers every replay-derived commit;
//  6. live is called: the runtime stops suppressing its record and flags
//     commits fresh from here on;
//  7. Init's header goes unless replay moved the engine past it, and the
//     current proposal is recorded (Observer.Proposed) unless it is the
//     restored one, already in the record;
//  8. Init's output, then the crash-rejoin handshake's (StartRejoin), go to
//     dispatch.
//
// now is read at every step. A replay error returns before step 4, with
// nothing transmitted.
func (v *Validator) Recover(now func() int64, replay Replay, live func(), dispatch func(*engine.Output)) error {
	eng := v.Engine
	if v.Executor != nil {
		if snap, ok := v.Executor.Store().Latest(); ok {
			if meta, install, err := v.Executor.InstallLocal(snap); err == nil {
				eng.FastForwardToSnapshot(meta, install, now())
			}
		}
	}
	initOut := eng.Init(now())
	if replay != nil {
		var last *engine.Header
		err := replay(func(cert *engine.Certificate) error {
			eng.OnMessage(v.self, &engine.Message{Kind: engine.KindCertificate, Cert: cert}, now())
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
	eng.Flush()
	live()
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
	if cur != nil && cur.Round > eng.ProposalFloor() && v.observer != nil {
		// Built while the record was suppressed and about to go on the wire:
		// recorded first, so a crash cannot force a conflicting re-proposal.
		v.observer.Proposed(cur)
	}
	dispatch(initOut)
	// Proposals made and timers armed while replaying were never transmitted;
	// on a correlated restart the committee would wedge at its pre-crash
	// round without the handshake (see engine.StartRejoin).
	dispatch(eng.StartRejoin(now()))
	return nil
}
