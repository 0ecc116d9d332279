// Package simnet is a deterministic discrete-event simulator for
// HammerHead/Bullshark deployments. It substitutes for the paper's AWS
// testbed: validators run the exact production engine
// (internal/engine); only the transport, clock and fault injection are
// simulated. A 100-validator, multi-minute geo-distributed run executes in
// seconds of wall time and is perfectly reproducible from its seed.
package simnet

import (
	"container/heap"
	"math/rand"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  int64 // virtual nanos
	seq uint64
	fn  func()
}

// eventHeap orders events by (time, insertion sequence); the sequence tie
// break keeps same-instant events FIFO and the run deterministic.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator is a single-threaded virtual-time event loop. Not safe for
// concurrent use.
type Simulator struct {
	queue eventHeap
	now   int64
	seq   uint64
	rng   *rand.Rand

	processed uint64
}

// New creates a simulator with the given seed. Equal seeds produce
// bit-identical runs.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))} //nolint:gosec // deterministic by design
}

// Now returns the current virtual time in nanoseconds.
func (s *Simulator) Now() int64 { return s.now }

// Rand returns the simulator's deterministic RNG. All randomness in a run
// must come from here.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// After schedules fn at now+delay. Negative delays clamp to "immediately".
func (s *Simulator) After(delay time.Duration, fn func()) {
	at := s.now + delay.Nanoseconds()
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// Step runs the next event; it reports false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	s.processed++
	e.fn()
	return true
}

// RunUntil processes events until virtual time passes deadline (nanos) or
// the queue drains. Events scheduled exactly at the deadline still run.
func (s *Simulator) RunUntil(deadline int64) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances virtual time by d.
func (s *Simulator) RunFor(d time.Duration) {
	s.RunUntil(s.now + d.Nanoseconds())
}

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }
