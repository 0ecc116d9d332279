package engine

import (
	"sync"
	"sync/atomic"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// CommitSink receives ordered sub-DAGs from the engine. It replaces the old
// inline Output.Commits contract: runtimes register a sink at construction
// and the engine pushes commits into it — synchronously from the message
// path when the pipeline is disabled (PipelineDepth == 0), or from the order
// stage's goroutine when it is enabled. Deliveries are strictly ordered by
// commit index either way; a sink that blocks exerts backpressure on the
// order stage (and, through the bounded stage queue, on ingest).
type CommitSink interface {
	DeliverCommit(sub bullshark.CommittedSubDAG)
}

// CommitSinkFunc adapts a function to the CommitSink interface.
type CommitSinkFunc func(sub bullshark.CommittedSubDAG)

// DeliverCommit implements CommitSink.
func (f CommitSinkFunc) DeliverCommit(sub bullshark.CommittedSubDAG) { f(sub) }

// discardSink drops commits; used when no sink is configured (experiments
// that only read counters).
type discardSink struct{}

func (discardSink) DeliverCommit(bullshark.CommittedSubDAG) {}

// orderStage is stage 2 of the engine pipeline: it owns the Bullshark
// committer and the leader scheduler's mutations, consuming certificates in
// DAG-insertion order from a bounded queue and delivering commits to the
// sink. Because the queue is FIFO and the committer is a deterministic
// function of the vertex sequence it is fed, the pipelined commit order is
// byte-identical to running the committer inline on the ingest goroutine
// (proven by TestPipelinedOrderingMatchesSerial).
//
// mu guards the committer and scheduler: the ingest stage still reads the
// schedule (leader-wait in tryAdvance) and the ordering floor (progress
// timer, GC) while the stage mutates them on commit.
type orderStage struct {
	mu        sync.Mutex
	committer *bullshark.Committer // guarded by mu
	scheduler leader.Scheduler     // guarded by mu
	sink      CommitSink

	in   chan *dag.Vertex
	quit chan struct{}
	wg   sync.WaitGroup

	// flushCond signals processed catching up with submitted (Flush).
	flushMu   sync.Mutex
	flushCond *sync.Cond
	submitted uint64 // guarded by flushMu
	processed uint64 // guarded by flushMu

	// gcEvery/gcDepth mirror the engine config; the stage prunes the DAG and
	// committer state itself (it owns them) and publishes the floor so the
	// ingest stage can prune its own maps without taking mu.
	gcEvery     uint64
	gcDepth     uint64
	commitsToGC uint64
	safeFloor   atomic.Uint64
	// self's vertices, and the transactions in them, that collect released
	// without their ever having been ordered (Stats.OwnVerticesPrunedUnordered).
	self              types.ValidatorID
	ownPrunedVertices atomic.Uint64
	ownPrunedTxs      atomic.Uint64
}

func newOrderStage(committer *bullshark.Committer, scheduler leader.Scheduler, sink CommitSink, self types.ValidatorID, depth int, gcEvery, gcDepth uint64) *orderStage {
	s := &orderStage{
		committer: committer,
		scheduler: scheduler,
		sink:      sink,
		self:      self,
		in:        make(chan *dag.Vertex, depth),
		quit:      make(chan struct{}),
		gcEvery:   gcEvery,
		gcDepth:   gcDepth,
	}
	s.flushCond = sync.NewCond(&s.flushMu)
	s.wg.Add(1)
	go s.run()
	return s
}

// submit hands an inserted vertex to the order stage in insertion order.
// Blocks when the queue is full — the backpressure that bounds how far
// ingest may run ahead of ordering — and drops the vertex if the stage has
// been closed (shutdown path; the WAL retains the certificate).
//
//hammerlint:nonblocking
func (s *orderStage) submit(v *dag.Vertex) {
	s.flushMu.Lock()
	s.submitted++
	s.flushMu.Unlock()
	select {
	case s.in <- v:
	case <-s.quit:
		s.markProcessed()
	}
}

// depth returns the current queue occupancy (stage-depth gauge).
func (s *orderStage) depth() int { return len(s.in) }

// floor returns the latest GC floor published by the stage.
func (s *orderStage) floor() uint64 { return s.safeFloor.Load() }

func (s *orderStage) markProcessed() {
	s.flushMu.Lock()
	s.processed++
	s.flushMu.Unlock()
	s.flushCond.Broadcast()
}

func (s *orderStage) run() {
	defer s.wg.Done()
	for {
		select {
		case v := <-s.in:
			s.process(v)
		case <-s.quit:
			// Drain what ingest already queued so Close after Flush never
			// strands a submitted vertex, then stop.
			for {
				select {
				case v := <-s.in:
					s.process(v)
				default:
					return
				}
			}
		}
	}
}

func (s *orderStage) process(v *dag.Vertex) {
	s.mu.Lock()
	commits := s.committer.ProcessVertex(v)
	s.mu.Unlock()
	for _, sub := range commits {
		s.sink.DeliverCommit(sub)
	}
	if n := uint64(len(commits)); n > 0 {
		s.commitsToGC += n
		if s.commitsToGC >= s.gcEvery {
			s.commitsToGC = 0
			s.collect()
		}
	}
	s.markProcessed()
}

// collect prunes the order stage's own state (committer ordered-set and the
// DAG rounds below the retention floor) and publishes the floor for the
// ingest stage's map pruning.
func (s *orderStage) collect() {
	s.mu.Lock()
	floor := s.committer.LastOrderedRound()
	if mr, ok := s.scheduler.(minRetainer); ok {
		if m := mr.MinRetainedRound(); m < floor {
			floor = m
		}
	}
	if floor <= types.Round(s.gcDepth) {
		s.mu.Unlock()
		return
	}
	floor -= types.Round(s.gcDepth)
	unordered := s.committer.Prune(floor)
	s.mu.Unlock()
	vertices, txs := ownPayload(unordered, s.self)
	s.ownPrunedVertices.Add(vertices)
	s.ownPrunedTxs.Add(txs)
	s.safeFloor.Store(uint64(floor))
}

// Flush blocks until every vertex submitted so far has been ordered and its
// commits delivered to the sink. Used by tests, benchmarks and the node's
// recovery path (replayed commits must all be flagged before going live).
func (s *orderStage) Flush() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for s.processed < s.submitted {
		s.flushCond.Wait()
	}
}

// Close stops the stage goroutine after draining already-queued vertices.
// Concurrent submits after Close are dropped. Idempotent.
func (s *orderStage) Close() {
	select {
	case <-s.quit:
		return
	default:
	}
	close(s.quit)
	s.wg.Wait()
	// Account for anything the drain loop could not reach (racing submits).
	s.flushMu.Lock()
	s.processed = s.submitted
	s.flushMu.Unlock()
	s.flushCond.Broadcast()
}
