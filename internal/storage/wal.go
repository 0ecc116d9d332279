// Package storage persists a validator's certificates in an append-only
// write-ahead log so a crashed process can rebuild its DAG, committer and
// schedule state on restart.
//
// Only certificates need persisting: the DAG is exactly the cert set, and
// both the commit sequence and the HammerHead schedule history are
// deterministic functions of it (the same property that gives the protocol
// Schedule Agreement gives the WAL its simplicity). The paper's
// implementation persists through RocksDB; a CRC-framed log file is the
// stdlib equivalent with the same contract.
//
// Two record kinds share the log. Certificate records rebuild the DAG.
// Proposal records persist the header this validator signed for its own slot
// each round — the voted-round high-water mark: on replay the engine
// re-adopts the highest recorded proposal and re-transmits it verbatim
// instead of building a fresh (digest-conflicting) header for a slot whose
// certificate may have survived only in a peer's WAL, which would equivocate
// the slot.
//
// Record layout: 4-byte big-endian body length, 4-byte CRC32C of the body,
// then a version-tagged body: 0x02 + kind byte (1 = certificate, 2 =
// proposal) + the engine's deterministic wire encoding. A torn tail (partial
// final record, truncated file, CRC mismatch at the end) is tolerated on
// replay, as a crash mid-append must not poison recovery. A record that
// passes its CRC under any other version tag is not a torn tail but a log
// from another format generation: every scan refuses it with an error and
// leaves the file as it is.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
	"hammerhead/internal/wire"
)

var _crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("storage: WAL is closed")

// _maxRecordSize bounds a single record (a certificate with a full batch).
const _maxRecordSize = 64 << 20

// Buffer sizes. An append session and a start-up replay keep theirs for the
// life of the process or run once; a compaction runs at every checkpoint
// floor advance and only streams records from one file to another (each is
// flushed as it is appended), so it gets a copy-sized pair instead of two
// more megabytes of garbage per pass.
const (
	_sessionBufSize = 1 << 20
	_compactBufSize = 64 << 10
)

// WAL is an append-only certificate log. Append is not safe for concurrent
// use; the node serializes through its event loop.
type WAL struct {
	path   string
	file   *os.File
	writer *bufio.Writer
	// SyncEveryAppend forces an fsync per record; off by default (the
	// protocol tolerates losing the latest certificates — peers re-serve
	// them through the sync path).
	SyncEveryAppend bool

	appended uint64
	closed   bool
}

// OpenWAL opens (or creates) the log at path for appending. A torn or
// corrupt tail left by a crash mid-append is truncated to the last valid
// record first: without the truncation, records appended after the garbage
// would be unreachable on the NEXT replay (which stops at the first bad
// record), silently losing every certificate persisted after the crash.
// Callers that just replayed the log avoid the validity scan by passing the
// replay's measured prefix through OpenWALTrimmed instead. A log holding a
// record of another format generation is refused and left untouched.
func OpenWAL(path string) (*WAL, error) {
	valid, err := replayRecords(path, _sessionBufSize, nil, nil)
	if err != nil {
		return nil, err
	}
	return OpenWALTrimmed(path, valid)
}

// OpenWALTrimmed opens the log for appending after truncating it to the
// given valid prefix length (as returned by ReplayPrefixRecords), skipping
// OpenWAL's own full-file validity scan.
func OpenWALTrimmed(path string, validBytes int64) (*WAL, error) {
	if info, err := os.Stat(path); err == nil && info.Size() > validBytes {
		if err := os.Truncate(path, validBytes); err != nil {
			return nil, fmt.Errorf("storage: truncating torn WAL tail: %w", err)
		}
	}
	return openWALAppend(path, _sessionBufSize)
}

func openWALAppend(path string, bufSize int) (*WAL, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating WAL directory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening WAL %s: %w", path, err)
	}
	return &WAL{path: path, file: f, writer: bufio.NewWriterSize(f, bufSize)}, nil
}

// walRecord is one decoded log record: exactly one field is set.
type walRecord struct {
	Cert     *engine.Certificate
	Proposal *engine.Header
}

// Record body version tag: the tag, a record kind byte, then the payload's
// engine wire form. 0x01 (a gob envelope) and every first byte of a bare gob
// stream are retired generations: a format revision takes the next value up
// and never reuses one.
const (
	_recordV2 = 0x02

	_recordKindCert     = 0x01
	_recordKindProposal = 0x02
)

// errUnknownRecordVersion marks a CRC-intact record body whose version tag
// this binary does not write: the log belongs to another format generation.
var errUnknownRecordVersion = errors.New("unknown record version tag")

// readRecord reads one framed record body. ok=false at a clean EOF, torn
// header or body, implausible length, or CRC mismatch — the crash-consistent
// stop conditions shared by ReplayPrefixRecords and the reopen truncation.
func readRecord(r *bufio.Reader) (body []byte, ok bool) {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, false
	}
	size := binary.BigEndian.Uint32(header[:4])
	sum := binary.BigEndian.Uint32(header[4:])
	if size == 0 || size > _maxRecordSize {
		return nil, false
	}
	body = make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, false
	}
	if crc32.Checksum(body, _crcTable) != sum {
		return nil, false
	}
	return body, true
}

// decodeRecord parses a CRC-intact record body. An unknown version tag is
// errUnknownRecordVersion, which no scan may treat as a torn tail; any other
// error is an undecodable body under the current tag, where replay stops.
// Decoded payloads alias body, which readRecord allocates per record.
func decodeRecord(body []byte) (walRecord, error) {
	if len(body) == 0 {
		return walRecord{}, wire.ErrTruncated
	}
	if body[0] != _recordV2 {
		return walRecord{}, fmt.Errorf("%w 0x%02x", errUnknownRecordVersion, body[0])
	}
	if len(body) < 2 {
		return walRecord{}, wire.ErrTruncated
	}
	r := wire.NewReader(body[2:])
	var rec walRecord
	switch body[1] {
	case _recordKindCert:
		rec.Cert = engine.ReadCertificateWire(r)
	case _recordKindProposal:
		rec.Proposal = engine.ReadHeaderWire(r)
	default:
		return walRecord{}, fmt.Errorf("unknown record kind 0x%02x", body[1])
	}
	return rec, r.Finish()
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Appended returns the number of records appended in this session.
func (w *WAL) Appended() uint64 { return w.appended }

// Append writes one certificate record.
func (w *WAL) Append(cert *engine.Certificate) error {
	return w.appendRecord(walRecord{Cert: cert})
}

// AppendProposal writes one proposal record: the header this validator signed
// for its own slot. On replay the highest recorded proposal becomes the
// voted-round high-water mark (engine.RestoreProposal).
func (w *WAL) AppendProposal(h *engine.Header) error {
	return w.appendRecord(walRecord{Proposal: h})
}

// appendRecord frames and writes one record. The record encoding must be
// deterministic: replay-trim logic compares byte offsets across restarts.
//
//hammerlint:deterministic
func (w *WAL) appendRecord(rec walRecord) error {
	if w.closed {
		return ErrClosed
	}
	var body []byte
	switch {
	case rec.Cert != nil:
		body = make([]byte, 0, rec.Cert.EncodedSize()+8)
		body = append(body, _recordV2, _recordKindCert)
		body = engine.AppendCertificateWire(body, rec.Cert)
	case rec.Proposal != nil:
		body = make([]byte, 0, rec.Proposal.EncodedSize()+8)
		body = append(body, _recordV2, _recordKindProposal)
		body = engine.AppendHeaderWire(body, rec.Proposal)
	default:
		return fmt.Errorf("storage: encoding WAL record: empty envelope")
	}
	var header [8]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(header[4:], crc32.Checksum(body, _crcTable))
	if _, err := w.writer.Write(header[:]); err != nil {
		return fmt.Errorf("storage: writing record header: %w", err)
	}
	if _, err := w.writer.Write(body); err != nil {
		return fmt.Errorf("storage: writing record body: %w", err)
	}
	if err := w.writer.Flush(); err != nil {
		return fmt.Errorf("storage: flushing WAL: %w", err)
	}
	if w.SyncEveryAppend {
		if err := w.file.Sync(); err != nil {
			return fmt.Errorf("storage: syncing WAL: %w", err)
		}
	}
	w.appended++
	return nil
}

// Sync forces buffered records to stable storage.
func (w *WAL) Sync() error {
	if w.closed {
		return ErrClosed
	}
	if err := w.writer.Flush(); err != nil {
		return err
	}
	return w.file.Sync()
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.writer.Flush(); err != nil {
		_ = w.file.Close()
		return err
	}
	return w.file.Close()
}

// ReplayPrefixRecords streams certificate records to certFn and proposal
// records to propFn (either may be nil), in append order, returning the byte
// length of the valid record prefix; callers about to OpenWAL the same log
// pass it through OpenWALTrimmed, sparing the open its own validity scan. The
// node's recovery path uses it to rebuild the DAG and recover the voted-round
// high-water mark in one scan. A torn or corrupt tail ends replay silently
// (crash-consistent); corruption in the middle also stops there — the
// protocol's sync path backfills anything lost. A callback returning an error
// aborts replay with that error, and so does a CRC-intact record under a
// version tag of another format generation.
func ReplayPrefixRecords(path string, certFn func(*engine.Certificate) error, propFn func(*engine.Header) error) (int64, error) {
	return replayRecords(path, _sessionBufSize, certFn, propFn)
}

func replayRecords(path string, bufSize int, certFn func(*engine.Certificate) error, propFn func(*engine.Header) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil // nothing to replay
		}
		return 0, fmt.Errorf("storage: opening WAL for replay: %w", err)
	}
	defer f.Close()

	var valid int64
	r := bufio.NewReaderSize(f, bufSize)
	for {
		body, ok := readRecord(r)
		if !ok {
			return valid, nil // clean EOF, torn record, or corruption: stop
		}
		rec, err := decodeRecord(body)
		if errors.Is(err, errUnknownRecordVersion) {
			return valid, fmt.Errorf("storage: WAL %s: %w at byte offset %d: written by another format generation, refusing to replay or truncate it", path, err, valid)
		}
		if err != nil {
			return valid, nil // undecodable body: stop
		}
		switch {
		case rec.Cert != nil && certFn != nil:
			if err := certFn(rec.Cert); err != nil {
				return valid, err
			}
		case rec.Proposal != nil && propFn != nil:
			if err := propFn(rec.Proposal); err != nil {
				return valid, err
			}
		}
		valid += int64(8 + len(body))
	}
}

// WALInfo summarizes a log's replayable prefix: how many certificates a
// restart would recover and the round span they cover. LowestRound is the
// log's replay frontier floor — checkpoint-driven compaction raises it as
// the executor's checkpoint floor advances.
type WALInfo struct {
	// Certs is the number of intact certificate records in the valid prefix.
	Certs uint64
	// LowestRound and HighestRound bound the recorded certificate rounds
	// (both zero when the log is empty).
	LowestRound  types.Round
	HighestRound types.Round
	// Proposals counts recorded own-slot proposal headers; HighestProposal is
	// the voted-round high-water mark a restart will restore.
	Proposals       uint64
	HighestProposal types.Round
	// ValidBytes is the byte length of the valid record prefix.
	ValidBytes int64
}

// Inspect scans the log and reports its replayable frontier. It shares
// ReplayPrefixRecords' record iteration exactly, so what it reports is precisely
// what a restart will replay.
func Inspect(path string) (WALInfo, error) {
	var info WALInfo
	valid, err := ReplayPrefixRecords(path, func(cert *engine.Certificate) error {
		r := cert.Header.Round
		if info.Certs == 0 || r < info.LowestRound {
			info.LowestRound = r
		}
		if r > info.HighestRound {
			info.HighestRound = r
		}
		info.Certs++
		return nil
	}, func(h *engine.Header) error {
		info.Proposals++
		if h.Round > info.HighestProposal {
			info.HighestProposal = h.Round
		}
		return nil
	})
	info.ValidBytes = valid
	return info, err
}

// CompactTo rewrites an OPEN log in place, keeping only certificates with
// round >= floor, and restores the append session over the compacted file.
// The node's WAL writer calls it when the executor's checkpoint floor
// advances: certificates below the floor are covered by a persisted
// checkpoint, so replaying them after a restart is redundant and the log
// would otherwise grow without bound. Must be called from the goroutine that
// owns Append (the write handle is closed and reopened around the rewrite).
// On a reopen failure the WAL transitions to closed; a compaction failure
// with a healthy reopen leaves the original log intact and appendable.
func (w *WAL) CompactTo(floor types.Round) error {
	if w.closed {
		return ErrClosed
	}
	if err := w.writer.Flush(); err != nil {
		return err
	}
	if err := w.file.Close(); err != nil {
		w.closed = true
		return fmt.Errorf("storage: closing WAL for compaction: %w", err)
	}
	compactErr := Compact(w.path, floor)
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.closed = true
		return fmt.Errorf("storage: reopening WAL after compaction: %w", err)
	}
	w.file = f
	w.writer.Reset(f) // flushed above: nothing buffered, no sticky error
	return compactErr
}

// Compact rewrites the log keeping only records with round >= floor, using a
// temp-file-and-rename so a crash mid-compaction leaves either the old or the
// new log intact. The highest proposal record is always retained even below
// the floor: it is the voted-round high-water mark, and dropping it would
// silently widen the slot-equivocation window after the next restart. The
// WAL must be closed by the caller first (open sessions use CompactTo, which
// handles the handle swap).
func Compact(path string, floor types.Round) error {
	tmp := path + ".compact"
	// A crash mid-compaction can leave a stale temp file; OpenWAL would
	// APPEND after its valid prefix, renaming below-floor and duplicate
	// records into the live log. Start from scratch instead.
	if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: clearing stale compaction file: %w", err)
	}
	out, err := openWALAppend(tmp, _compactBufSize)
	if err != nil {
		return err
	}
	// Single pass: proposals at or above the floor copy through; the highest
	// below-floor proposal is buffered and appended at the end ONLY when no
	// above-floor proposal preserved the mark (replay takes the highest, so
	// record order does not matter for proposals).
	var bestBelow *engine.Header
	keptMark := false
	_, replayErr := replayRecords(path, _compactBufSize, func(cert *engine.Certificate) error {
		if cert.Header.Round < floor {
			return nil
		}
		return out.Append(cert)
	}, func(h *engine.Header) error {
		if h.Round >= floor {
			keptMark = true
			return out.AppendProposal(h)
		}
		if bestBelow == nil || h.Round > bestBelow.Round {
			bestBelow = h
		}
		return nil
	})
	if replayErr == nil && !keptMark && bestBelow != nil {
		replayErr = out.AppendProposal(bestBelow)
	}
	if replayErr != nil {
		_ = out.Close()
		_ = os.Remove(tmp)
		return replayErr
	}
	if err := out.Sync(); err != nil {
		_ = out.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := out.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
