package validator

import (
	"errors"
	"sync/atomic"

	"hammerhead/internal/engine"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
)

// Log is a validator's durable record in a storage.WAL: every certificate its
// engine inserts, flushed but not fsynced (peers re-serve what a power loss
// takes), and every header it proposes, fsynced before the header can certify.
// Both runtimes write through it — internal/node from its writer goroutine,
// internal/simnet inline — and Recover replays it. Not safe for concurrent
// use, except Checkpointed.
type Log struct {
	path string
	// wal is opened by Recover's replay or by Init; the validator records
	// nothing before either has run.
	wal *storage.WAL
	// floor is the round the next Append compacts the log to (0 = none).
	floor     atomic.Uint64
	onCompact func(types.Round, error)
}

// NewLog returns the log at path, not yet opened. onCompact, when non-nil,
// hears the floor and the outcome of every compaction.
func NewLog(path string, onCompact func(floor types.Round, err error)) *Log {
	return &Log{path: path, onCompact: onCompact}
}

// replay streams the log's intact prefix to cert and proposal, then opens the
// log for appending trimmed to that prefix: appending after a torn tail would
// strand everything written after it at the next replay.
func (l *Log) replay(cert func(*engine.Certificate) error, proposal func(*engine.Header) error) error {
	valid, err := storage.ReplayPrefixRecords(l.path, cert, proposal)
	if err != nil {
		return err
	}
	l.wal, err = storage.OpenWALTrimmed(l.path, valid)
	return err
}

// Append records an inserted certificate, first compacting the log to the
// floor Checkpointed last published, if one is pending. A failed compaction
// leaves at worst redundant history; if it left the log closed, the append
// reopens it.
func (l *Log) Append(cert *engine.Certificate) error {
	if floor := types.Round(l.floor.Swap(0)); floor > 0 {
		err := l.wal.CompactTo(floor)
		if l.onCompact != nil {
			l.onCompact(floor, err)
		}
	}
	return l.write(func(w *storage.WAL) error { return w.Append(cert) })
}

// AppendProposal records the header this validator signed for its own slot
// and fsyncs the log, so a restart re-adopts the header instead of signing a
// second one for the slot.
func (l *Log) AppendProposal(h *engine.Header) error {
	return l.write(func(w *storage.WAL) error {
		if err := w.AppendProposal(h); err != nil {
			return err
		}
		return w.Sync()
	})
}

// write runs op on the open log, reopening it first if a compaction closed
// it when its reopen failed: the file on disk is intact, so a transient error
// costs at most the records in between, not durability for the rest of the
// process's life.
func (l *Log) write(op func(*storage.WAL) error) error {
	if err := op(l.wal); !errors.Is(err, storage.ErrClosed) {
		return err
	}
	w, err := storage.OpenWAL(l.path)
	if err != nil {
		return err
	}
	l.wal = w
	return op(w)
}

// Checkpointed publishes a durable checkpoint's floor: Recover installs the
// checkpoint before it replays, so the next Append drops the certificates
// below the floor. Under HammerHead too: the checkpoint carries the scheduler
// state, and its floor is at or below the restored schedule's lowest retained
// round. Safe for concurrent use.
func (l *Log) Checkpointed(floor types.Round) {
	if floor > 0 {
		l.floor.Store(uint64(floor))
	}
}

// Close closes the log's file. Neither runtime writes to a log after closing
// it.
func (l *Log) Close() error {
	if l.wal == nil {
		return nil
	}
	return l.wal.Close()
}
