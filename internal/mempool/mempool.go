// Package mempool buffers client transactions until the consensus engine
// drains them into header batches. FairPool (fair.go) is the one pool callers
// build and the engine.BatchProvider; this file is the bounded queue each of
// its lanes is made of.
//
// The queue is sharded: submissions are spread round-robin over a
// power-of-two number of independently locked FIFO shards, so concurrent
// clients (the node's transport goroutines, RPC handlers, load generators)
// no longer serialize on one mutex. The engine drains round-robin across
// shards, one transaction per shard visit, which preserves global FIFO
// order for a single-threaded submitter — the simulator's determinism and
// the seed tests' ordering expectations depend on it. Under concurrent
// submitters only per-shard FIFO holds, which is all an async network ever
// guaranteed anyway.
//
// Capacity is a pool-wide bound enforced by one atomic counter, so
// backpressure semantics are unchanged from the single-queue pool:
// Submit returns ErrFull exactly when maxSize transactions are pending,
// which turns an overloaded validator into queueing latency in the
// experiments rather than unbounded memory growth. Stats are exact,
// maintained with atomics.
package mempool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"hammerhead/internal/types"
)

// ErrFull is returned when the pool is at capacity; clients should back off.
var ErrFull = errors.New("mempool: pool is full")

// Stats are cumulative mempool counters.
type Stats struct {
	Submitted uint64
	Rejected  uint64
	Drained   uint64
}

// shard is one independently locked FIFO queue. Padded to a cache line so
// neighbouring shard locks do not false-share under concurrent submitters.
type shard struct {
	mu    sync.Mutex
	queue []types.Transaction // guarded by mu
	head  int                 // guarded by mu
	_     [24]byte
}

// pop removes and returns the oldest transaction, compacting the dead
// prefix once it dominates (amortized O(1) per transaction).
func (s *shard) pop() (types.Transaction, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head >= len(s.queue) {
		return types.Transaction{}, false
	}
	tx := s.queue[s.head]
	s.head++
	if s.head > len(s.queue)/2 && s.head > 256 {
		s.queue = append(s.queue[:0:0], s.queue[s.head:]...)
		s.head = 0
	}
	return tx, true
}

// shardedPool is a bounded, sharded transaction queue: what one FairPool lane
// is made of. Safe for concurrent use: any number of clients submit while the
// engine drains from its own goroutine.
type shardedPool struct {
	shards  []shard
	mask    uint64
	maxSize int64

	pending   atomic.Int64
	submitSeq atomic.Uint64
	// drainAt is the next shard the drain scan starts from. Only the
	// draining goroutine touches it; it is not part of the atomic state.
	drainAt uint64

	submitted atomic.Uint64
	rejected  atomic.Uint64
	drained   atomic.Uint64
}

// newSharded creates a pool holding at most maxSize transactions with an
// explicit shard count, rounded up to a power of two. shards <= 0 picks a
// default: GOMAXPROCS rounded up, capped at 32 (beyond that, lock contention
// is no longer the bottleneck).
func newSharded(maxSize, shards int) *shardedPool {
	if maxSize < 1 {
		maxSize = 1
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 32 {
			shards = 32
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &shardedPool{
		shards:  make([]shard, n),
		mask:    uint64(n - 1),
		maxSize: int64(maxSize),
	}
}

// Submit enqueues a transaction onto the next shard in round-robin order,
// returning ErrFull when the pool-wide capacity is reached.
func (p *shardedPool) Submit(tx types.Transaction) error {
	// Reserve capacity first: the atomic add-then-check keeps the bound
	// exact under concurrent submitters without a global lock.
	if p.pending.Add(1) > p.maxSize {
		p.pending.Add(-1)
		p.rejected.Add(1)
		return ErrFull
	}
	s := &p.shards[(p.submitSeq.Add(1)-1)&p.mask]
	s.mu.Lock()
	s.queue = append(s.queue, tx)
	// Count while the shard is still locked: once unlocked the drainer can
	// pop this tx, and Drained must never be observable above Submitted.
	p.submitted.Add(1)
	s.mu.Unlock()
	return nil
}

// NextBatch implements engine.BatchProvider: it pops up to maxTx
// transactions round-robin across shards, returning nil when the pool is
// empty (empty headers are valid and keep rounds advancing under low load).
// Intended for one draining goroutine (the engine's), as with the previous
// single-queue pool.
func (p *shardedPool) NextBatch(_ int64, maxTx int) *types.Batch {
	if maxTx < 1 || p.pending.Load() == 0 {
		return nil
	}
	txs := make([]types.Transaction, 0, min(maxTx, int(p.pending.Load())))
	n := uint64(len(p.shards))
	emptyStreak := uint64(0)
	for len(txs) < maxTx && emptyStreak < n {
		tx, ok := p.shards[p.drainAt&p.mask].pop()
		p.drainAt++
		if !ok {
			emptyStreak++
			continue
		}
		emptyStreak = 0
		txs = append(txs, tx)
	}
	if len(txs) == 0 {
		return nil
	}
	p.pending.Add(int64(-len(txs)))
	p.drained.Add(uint64(len(txs)))
	return &types.Batch{Transactions: txs}
}

// PopOne removes and returns the single oldest transaction across shards
// (round-robin, like NextBatch) without allocating a Batch — the
// fair-admission drain interleaves lanes one transaction at a time, and a
// per-transaction Batch allocation on the engine's header-build path would
// be pure garbage. Same single-drainer contract as NextBatch.
func (p *shardedPool) PopOne() (types.Transaction, bool) {
	if p.pending.Load() == 0 {
		return types.Transaction{}, false
	}
	n := uint64(len(p.shards))
	for tries := uint64(0); tries < n; tries++ {
		tx, ok := p.shards[p.drainAt&p.mask].pop()
		p.drainAt++
		if ok {
			p.pending.Add(-1)
			p.drained.Add(1)
			return tx, true
		}
	}
	return types.Transaction{}, false
}

// Pending returns the number of queued transactions.
func (p *shardedPool) Pending() int { return int(p.pending.Load()) }

// Stats returns a copy of the counters. Drained is loaded before Submitted
// so a concurrent reader can never observe Drained > Submitted (submits
// racing between the two loads only inflate Submitted).
func (p *shardedPool) Stats() Stats {
	drained := p.drained.Load()
	return Stats{
		Submitted: p.submitted.Load(),
		Rejected:  p.rejected.Load(),
		Drained:   drained,
	}
}
