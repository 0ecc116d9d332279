// Package mempool buffers client transactions until the consensus engine
// drains them into header batches. FairPool (fair.go) is the one pool callers
// build and the engine.BatchProvider; this file is the bounded queue each of
// its lanes is.
//
// A lane is one FIFO behind one mutex. Its capacity is exact: submit returns
// ErrFull exactly when the lane holds its limit, which turns an overloaded
// validator into queueing latency in the experiments rather than unbounded
// memory growth. A single submitter's transactions drain in the order it
// submitted them — the simulator's determinism and the seed tests' ordering
// expectations depend on it; concurrent submitters get the order in which
// they took the lock, which is all an async network ever guaranteed anyway.
package mempool

import (
	"errors"
	"sync"

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

// laneQueue is one admission lane: a bounded FIFO of transactions. Safe for
// concurrent use: any number of clients submit while the engine drains from
// its own goroutine. limit is set before the lane is shared and never
// changes.
type laneQueue struct {
	limit int

	mu sync.Mutex
	// queue[head:] is pending; queue[:head] is drained and awaits compaction.
	queue []types.Transaction // guarded by mu
	head  int                 // guarded by mu
	stats Stats               // guarded by mu
}

// submit appends tx, or returns ErrFull when the lane holds limit
// transactions.
func (q *laneQueue) submit(tx types.Transaction) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue)-q.head >= q.limit {
		q.stats.Rejected++
		return ErrFull
	}
	q.queue = append(q.queue, tx)
	q.stats.Submitted++
	return nil
}

// take moves up to want of the oldest pending transactions onto dst and
// returns it. The drained prefix is compacted away once it dominates the
// backing array (amortized O(1) per transaction).
func (q *laneQueue) take(dst []types.Transaction, want int) []types.Transaction {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := min(want, len(q.queue)-q.head)
	dst = append(dst, q.queue[q.head:q.head+n]...)
	q.head += n
	q.stats.Drained += uint64(n)
	if q.head > len(q.queue)/2 && q.head > 256 {
		q.queue = append(q.queue[:0:0], q.queue[q.head:]...)
		q.head = 0
	}
	return dst
}

// state returns the pending count and the counters, read together.
func (q *laneQueue) state() (int, Stats) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue) - q.head, q.stats
}
