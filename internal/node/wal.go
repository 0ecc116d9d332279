package node

import (
	"log/slog"
	"sync"
	"sync/atomic"

	"hammerhead/internal/engine"
	"hammerhead/internal/metrics"
	"hammerhead/internal/types"
	"hammerhead/internal/validator"
)

// walWriter makes the node's record durable off the engine goroutine: every
// certificate the engine inserts and every header it proposes is written
// through the validator's Log by the writer's own goroutine, in order, so
// append latency stays out of message processing.
//
// The queue's order is the durability watermark: the engine reports a
// certificate (Observer.Inserted) before its vertex can reach any commit, so
// a mark enqueued when a commit is sinked is reached only once every
// certificate in that commit is appended, and the commit loop holds its
// delivery until then (waitDurable). A commit handed to the executor with
// replayed=false is therefore always re-derivable from the WAL, and can never
// be re-delivered as fresh after a crash.
//
// An own header goes out before its record is durable; the engine certifies
// it only once the writer reports the record fsynced (see
// engine.Observer.Proposed). The report is a non-blocking hand-off — the
// latest durable proposal round and a one-slot wake-up the node's loop
// selects on — so the writer never waits for the engine, and a full task
// queue and a full write queue cannot wait for each other.
type walWriter struct {
	// log is replayed and opened by recovery (validator.Recover) and written
	// by the writer goroutine from then on.
	log *validator.Log
	q   chan func()
	wg  sync.WaitGroup
	// stop is the node's shutdown signal.
	stop <-chan struct{}
	// durable wakes the node's loop once a proposal record is durable;
	// durableRound is the round of the latest one.
	durable      chan struct{}
	durableRound atomic.Uint64

	queueMetric *metrics.Gauge
}

func newWALWriter(path string, reg *metrics.Registry, logger *slog.Logger, stop <-chan struct{}) *walWriter {
	w := &walWriter{
		// Absorbs a burst of certificates (a sync response, a rejoin merge)
		// without stalling ingest on every append; a slower disk than that
		// backpressures insertion.
		q:       make(chan func(), 1024),
		stop:    stop,
		durable: make(chan struct{}, 1),
	}
	var compacts, compactFails *metrics.Counter
	if reg != nil {
		w.queueMetric = reg.Gauge("hammerhead_wal_queue_depth")
		compacts = reg.Counter("hammerhead_wal_compactions_total")
		compactFails = reg.Counter("hammerhead_wal_compaction_failures_total")
	}
	w.log = validator.NewLog(path, func(floor types.Round, err error) {
		if err != nil {
			logger.Warn("WAL compaction failed", "floor", floor, "err", err)
			if compactFails != nil {
				compactFails.Inc()
			}
		} else if compacts != nil {
			compacts.Inc()
		}
	})
	return w
}

// inserted enqueues an inserted certificate. Runs on the ingest goroutine, in
// insertion order.
func (w *walWriter) inserted(cert *engine.Certificate) {
	if w != nil {
		w.enqueue(func() { _ = w.log.Append(cert) })
	}
}

// proposed enqueues this validator's own signed header and reports whether
// its record is durable already: only without a WAL. Otherwise the writer
// appends and fsyncs it (validator.Log.AppendProposal) and then reports the
// round through durable, without waiting for anyone. Runs on the engine
// goroutine, which waits only while the write queue is full, as for inserted.
func (w *walWriter) proposed(h *engine.Header) bool {
	if w == nil {
		return true
	}
	w.enqueue(func() {
		_ = w.log.AppendProposal(h)
		w.durableRound.Store(uint64(h.Round))
		select {
		case w.durable <- struct{}{}:
		default: // a wake-up is pending already: it reads the latest round
		}
	})
	return false
}

// mark returns a channel the writer closes once every record enqueued before
// it is written: a commit sinked now holds only certificates enqueued before
// (nil without a WAL).
func (w *walWriter) mark() <-chan struct{} {
	if w == nil {
		return nil
	}
	written := make(chan struct{})
	w.enqueue(func() { close(written) })
	return written
}

// waitDurable blocks until the writer closes durable, or the node shuts down
// (the write may then never happen).
func (w *walWriter) waitDurable(durable <-chan struct{}) {
	select {
	case <-durable:
	case <-w.stop:
	}
}

// enqueue hands a write to the writer goroutine, unless the node shuts down
// first.
func (w *walWriter) enqueue(write func()) {
	select {
	case w.q <- write:
		w.observeQueue()
	case <-w.stop:
	}
}

func (w *walWriter) observeQueue() {
	if w.queueMetric != nil {
		w.queueMetric.Set(int64(len(w.q)))
	}
}

// loop runs the writes in order. Persistence failure must not stall
// consensus (recovery falls back to peer sync), so write errors are
// swallowed: a failed append never blocks commit delivery, and a proposal is
// reported durable even when its fsync failed.
func (w *walWriter) loop() {
	defer w.wg.Done()
	for write := range w.q {
		w.observeQueue()
		write()
	}
}

// close drains the writer and closes the log. Call after nothing enqueues
// anymore (the commit loop and the engine are stopped).
func (w *walWriter) close() error {
	if w == nil {
		return nil
	}
	close(w.q)
	w.wg.Wait()
	return w.log.Close()
}
