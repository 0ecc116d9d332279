package execution

import (
	"fmt"
	"sync"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/engine"
)

// inlineOracle is the executor's checkpointing as it was while a checkpoint
// was taken in one step under the executor's lock: serialise the live state,
// sort, encode, save and cache, and re-save a certified checkpoint on the
// certificate's own call. It drives a real Executor that never cuts on its
// own for what checkpointing does not touch (applying commits, an install's
// state restore) and keeps the checkpoint cache, certificates and frozen
// views itself. The pipeline must persist and serve exactly its bytes.
type inlineOracle struct {
	x         *Executor
	store     *recordingStore
	certs     bool
	interval  uint64
	sinceCkpt uint64
	ckptCount uint64

	latest, prev             Snapshot
	haveLatest, havePrev     bool
	served                   map[uint64][]byte
	frozenLatest, frozenPrev *FrozenKV
	certified                *checkpoint.Certificate
	certifiedKV              *FrozenKV
}

func newInlineOracle(interval uint64, certs bool) *inlineOracle {
	return &inlineOracle{
		x:        NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62}),
		store:    &recordingStore{},
		certs:    certs,
		interval: interval,
		served:   make(map[uint64][]byte),
	}
}

// recordingStore is a MemoryStore that also keeps every blob it is handed,
// in order.
type recordingStore struct {
	MemoryStore
	mu    sync.Mutex
	saves []savedBlob // guarded by mu
}

type savedBlob struct {
	seq  uint64
	blob []byte
}

func (s *recordingStore) Save(seq uint64, blob []byte) error {
	s.mu.Lock()
	s.saves = append(s.saves, savedBlob{seq, blob})
	s.mu.Unlock()
	return s.MemoryStore.Save(seq, blob)
}

func (s *recordingStore) log() []savedBlob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]savedBlob(nil), s.saves...)
}

func (o *inlineOracle) apply(c bullshark.CommittedSubDAG) {
	before := o.x.AppliedSeq()
	o.x.ApplyCommit(c)
	if o.x.AppliedSeq() == before {
		return
	}
	o.sinceCkpt++
	if o.sinceCkpt >= o.interval {
		_, _ = o.checkpoint()
	}
}

func (o *inlineOracle) checkpoint() (Snapshot, error) {
	x := o.x
	x.mu.Lock()
	defer x.mu.Unlock()
	o.sinceCkpt = 0
	data, err := x.sm.Snapshot()
	if err != nil {
		return Snapshot{}, err
	}
	var refs []OrderedRef
	for _, bucket := range x.ordered {
		refs = append(refs, bucket...)
	}
	sortOrderedRefs(refs)
	schedBytes := x.schedStateBytes
	if x.schedState != nil {
		if schedBytes, err = x.schedState.Encode(); err != nil {
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
	if err := o.save(snap); err != nil {
		return Snapshot{}, err
	}
	o.cache(snap, o.freeze())
	o.ckptCount++
	return snap, nil
}

func (o *inlineOracle) save(snap Snapshot) error {
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return o.store.Save(snap.CommitSeq, blob)
}

func (o *inlineOracle) freeze() *FrozenKV {
	if kv, ok := o.x.sm.(*KVState); ok && o.certs {
		return kv.Freeze()
	}
	return nil
}

func (o *inlineOracle) cache(snap Snapshot, frozen *FrozenKV) {
	if o.haveLatest && o.latest.CommitSeq != snap.CommitSeq {
		o.prev, o.havePrev = o.latest, true
		o.frozenPrev = o.frozenLatest
	}
	o.latest, o.haveLatest = snap, true
	o.frozenLatest = frozen
	for seq := range o.served {
		if seq != o.latest.CommitSeq && (!o.havePrev || seq != o.prev.CommitSeq) {
			delete(o.served, seq)
		}
	}
}

func (o *inlineOracle) install(snap Snapshot) error {
	if err := o.x.Install(snap); err != nil {
		return err
	}
	o.sinceCkpt = 0
	o.x.mu.Lock()
	frozen := o.freeze()
	o.x.mu.Unlock()
	o.cache(snap, frozen)
	if snap.Cert != nil && frozen != nil {
		o.certified, o.certifiedKV, o.frozenPrev = snap.Cert, frozen, nil
	}
	return o.save(snap)
}

func (o *inlineOracle) attach(seq uint64, cert *checkpoint.Certificate) bool {
	switch {
	case o.haveLatest && o.latest.CommitSeq == seq:
		o.latest.Cert = cert
		delete(o.served, seq)
		_ = o.save(o.latest)
		if o.frozenLatest != nil {
			o.certified, o.certifiedKV, o.frozenPrev = cert, o.frozenLatest, nil
		}
		return true
	case o.havePrev && o.prev.CommitSeq == seq:
		o.prev.Cert = cert
		delete(o.served, seq)
		if o.frozenPrev != nil && (o.certified == nil || o.certified.Meta.CommitSeq < seq) {
			o.certified, o.certifiedKV = cert, o.frozenPrev
		}
		return true
	}
	return false
}

func (o *inlineOracle) close() {
	if o.x.AppliedSeq() > 0 && o.sinceCkpt > 0 {
		_, _ = o.checkpoint()
	}
}

func (o *inlineOracle) serve(snap Snapshot) (engine.SnapshotMeta, []byte, bool) {
	if snap.CommitSeq == 0 {
		return engine.SnapshotMeta{}, nil, false
	}
	blob, ok := o.served[snap.CommitSeq]
	if !ok {
		blob, _ = EncodeSnapshot(snap)
		o.served[snap.CommitSeq] = blob
	}
	return engine.SnapshotMeta{Round: snap.Round, CommitSeq: snap.CommitSeq,
		StateRoot: snap.StateRoot, StateDigest: snap.StateDigest}, blob, true
}

func (o *inlineOracle) latestSnapshot() (engine.SnapshotMeta, []byte, bool) {
	if !o.haveLatest {
		return engine.SnapshotMeta{}, nil, false
	}
	return o.serve(o.latest)
}

func (o *inlineOracle) certifiedBlob() ([]byte, bool) {
	if o.haveLatest && o.latest.Cert != nil {
		_, blob, ok := o.serve(o.latest)
		return blob, ok
	}
	if o.havePrev && o.prev.Cert != nil {
		_, blob, ok := o.serve(o.prev)
		return blob, ok
	}
	return nil, false
}
