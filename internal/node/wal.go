package node

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"

	"hammerhead/internal/engine"
	"hammerhead/internal/metrics"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
)

// walWriter makes the node's record durable: every certificate the engine
// inserts and every header it proposes, appended on the writer's own
// goroutine so append latency stays out of message processing.
//
// seq/done form the durability watermark: the engine reports a certificate
// (Observer.Inserted) before its vertex can reach any commit, so a commit
// sinked when seq == S contains only certificates enqueued at or before S,
// and the commit loop holds its delivery until done >= S (waitDurable). A
// commit handed to the executor with replayed=false is therefore always
// re-derivable from the WAL, and can never be re-delivered as fresh after a
// crash.
type walWriter struct {
	path string
	// wal is opened once recovery has replayed the log (open) and owned by
	// the writer goroutine from then on.
	wal  *storage.WAL
	q    chan walEntry
	wg   sync.WaitGroup
	mu   sync.Mutex
	cond *sync.Cond
	seq  uint64 // guarded by mu; certificates enqueued for append
	done uint64 // guarded by mu; certificates appended (or abandoned at shutdown)
	// compactFloor is the round below which the WAL no longer needs to
	// replay, published by the executor's checkpoint hook and consumed by the
	// writer between appends (0 = no compaction pending). Safe under
	// HammerHead too: the checkpoint carries the scheduler state, and its
	// floor is by construction at or below the restored schedule's minimum
	// retained round.
	compactFloor atomic.Uint64
	// replaying is the node's: until recovery goes live nothing is appended —
	// certificates that arrived before replay were never persisted before
	// either, and replayed ones must not be re-appended. stop is the node's
	// shutdown signal.
	replaying *atomic.Bool
	stop      <-chan struct{}
	logger    *slog.Logger

	queueMetric        *metrics.Gauge
	compactsMetric     *metrics.Counter
	compactFailsMetric *metrics.Counter
}

// walEntry is one record awaiting the writer: an inserted certificate
// (tracked by the durability watermark) or this validator's own signed
// proposal header (the voted-round high-water mark; commits never wait on
// it). durable, when non-nil, is closed once the record is appended AND
// fsynced — the proposer blocks on it so the header cannot reach the wire
// before the voted-mark is durable.
type walEntry struct {
	cert     *engine.Certificate
	proposal *engine.Header
	durable  chan struct{}
}

func newWALWriter(path string, reg *metrics.Registry, logger *slog.Logger, replaying *atomic.Bool, stop <-chan struct{}) *walWriter {
	w := &walWriter{
		path: path,
		// Absorbs a burst of certificates (a sync response, a rejoin merge)
		// without stalling ingest on every append; a slower disk than that
		// backpressures insertion.
		q:         make(chan walEntry, 1024),
		replaying: replaying,
		stop:      stop,
		logger:    logger,
	}
	w.cond = sync.NewCond(&w.mu)
	if reg != nil {
		w.queueMetric = reg.Gauge("hammerhead_wal_queue_depth")
		w.compactsMetric = reg.Counter("hammerhead_wal_compactions_total")
		w.compactFailsMetric = reg.Counter("hammerhead_wal_compaction_failures_total")
	}
	return w
}

// replay is the node's validator.Replay: it streams the log's intact prefix
// and then opens the log for appending, trimmed to that prefix (appending
// after a torn tail would strand everything written after it at the NEXT
// replay), and starts the writer goroutine.
func (w *walWriter) replay(cert func(*engine.Certificate) error, proposal func(*engine.Header) error) error {
	valid, err := storage.ReplayPrefixRecords(w.path, cert, proposal)
	if err != nil {
		return err
	}
	if w.wal, err = storage.OpenWALTrimmed(w.path, valid); err != nil {
		return err
	}
	w.wg.Add(1)
	go w.loop()
	return nil
}

// inserted enqueues an inserted certificate and advances the enqueue side of
// the watermark. Runs on the ingest goroutine, in insertion order.
func (w *walWriter) inserted(cert *engine.Certificate) {
	if w == nil || w.replaying.Load() {
		return
	}
	w.mu.Lock()
	w.seq++
	w.mu.Unlock()
	select {
	case w.q <- walEntry{cert: cert}:
		w.observeQueue()
	case <-w.stop:
		// Shutdown: the append will never happen; advance the watermark so
		// a commit delivery waiting on it is not stranded.
		w.mu.Lock()
		w.done++
		w.mu.Unlock()
		w.cond.Broadcast()
	}
}

// proposed records this validator's own signed header so a restart
// re-adopts the identical proposal instead of equivocating the slot. It
// BLOCKS until the record is appended and fsynced: a fire-and-forget append
// left a torn-tail window where the header had already reached peers while
// the voted-mark record was still (or only partially) in the page cache — a
// crash there re-proposed the slot and equivocated against surviving
// pre-crash votes. Proposals do not advance the commit watermark (no commit
// depends on them).
func (w *walWriter) proposed(h *engine.Header) {
	if w == nil || w.replaying.Load() {
		return
	}
	durable := make(chan struct{})
	select {
	case w.q <- walEntry{proposal: h, durable: durable}:
		w.observeQueue()
	case <-w.stop:
		return
	}
	select {
	case <-durable:
	case <-w.stop:
		// Shutdown: the broadcast will never be dispatched either.
	}
}

// watermark is the number of certificates enqueued so far: a commit sinked
// now holds only certificates at or below it (0 without a WAL).
func (w *walWriter) watermark() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// waitDurable blocks until the first seq enqueued certificates are appended,
// or the node shuts down.
func (w *walWriter) waitDurable(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.done < seq {
		select {
		case <-w.stop:
			return
		default:
		}
		w.cond.Wait()
	}
}

// wake releases commit deliveries parked in waitDurable (shutdown).
func (w *walWriter) wake() {
	if w != nil {
		w.cond.Broadcast()
	}
}

func (w *walWriter) observeQueue() {
	if w.queueMetric != nil {
		w.queueMetric.Set(int64(len(w.q)))
	}
}

// loop appends records in order and advances the durability watermark.
// Persistence failure must not stall consensus (recovery falls back to peer
// sync), so append errors are swallowed — the watermark still advances, as a
// failed append never blocked commit delivery. Between appends the loop runs
// any pending checkpoint-driven compaction: the writer goroutine owns the
// file handle, so the rewrite needs no extra locking.
func (w *walWriter) loop() {
	defer w.wg.Done()
	for entry := range w.q {
		w.observeQueue()
		appendEntry := func() error {
			if entry.cert != nil {
				return w.wal.Append(entry.cert)
			}
			return w.wal.AppendProposal(entry.proposal)
		}
		if err := appendEntry(); errors.Is(err, storage.ErrClosed) {
			// The only closed-while-running path is a compaction whose reopen
			// failed. The log itself lives on disk; reopen it and retry this
			// record, so a transient FS error costs at most the records
			// between failure and the next append instead of silently ending
			// durability for the rest of the process lifetime.
			if reopened, oerr := storage.OpenWAL(w.path); oerr == nil {
				w.wal = reopened
				_ = appendEntry()
			}
		}
		if entry.cert == nil {
			// The proposer blocks until the record is durable: fsync before
			// releasing it. A sync failure is swallowed like an append
			// failure (consensus must not stall on local disk trouble).
			if entry.durable != nil {
				_ = w.wal.Sync()
				close(entry.durable)
			}
			continue
		}
		w.mu.Lock()
		w.done++
		w.mu.Unlock()
		w.cond.Broadcast()
		if floor := w.compactFloor.Swap(0); floor > 0 {
			// Compaction failure is as tolerable as an append failure: the log
			// keeps (at worst) redundant history, never loses needed records.
			if err := w.wal.CompactTo(types.Round(floor)); err != nil {
				w.logger.Warn("WAL compaction failed", "floor", floor, "err", err)
				if w.compactFailsMetric != nil {
					w.compactFailsMetric.Inc()
				}
			} else if w.compactsMetric != nil {
				w.compactsMetric.Inc()
			}
		}
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
	if w.wal == nil {
		return nil
	}
	return w.wal.Close()
}
