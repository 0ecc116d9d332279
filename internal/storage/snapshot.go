package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hammerhead/internal/execution"
)

// SnapshotStore persists execution checkpoints as one file per snapshot
// under a directory, with atomic write-temp-rename publication and a
// retention knob. It implements execution.SnapshotStore; real nodes plug it
// into their executor so checkpoints survive restarts and can be served to
// state-syncing peers.
//
// File layout: checkpoint-<commitseq>.snap, body = 4-byte length + 4-byte
// CRC32C + the execution snapshot encoding (same framing discipline as the
// WAL). A corrupt file is skipped on load — the next older snapshot wins.
type SnapshotStore struct {
	mu     sync.Mutex
	dir    string
	retain int
}

var _ execution.SnapshotStore = (*SnapshotStore)(nil)

// DefaultSnapshotRetain is how many checkpoints are kept when the retention
// knob is zero: the latest to serve and one predecessor as a fallback
// against a torn latest.
const DefaultSnapshotRetain = 2

// NewSnapshotStore opens (creating if needed) a snapshot directory keeping
// the newest retain checkpoints (0 = DefaultSnapshotRetain).
func NewSnapshotStore(dir string, retain int) (*SnapshotStore, error) {
	if retain <= 0 {
		retain = DefaultSnapshotRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating snapshot directory: %w", err)
	}
	return &SnapshotStore{dir: dir, retain: retain}, nil
}

// Dir returns the store's directory.
func (s *SnapshotStore) Dir() string { return s.dir }

func snapshotFileName(commitSeq uint64) string {
	return fmt.Sprintf("checkpoint-%020d.snap", commitSeq)
}

// Save implements execution.SnapshotStore: write a temp file and fsync it,
// rename it into place and fsync the directory, then prune. A crash at any
// point leaves either the old set or the old set plus the complete new file,
// and once Save returns the new file survives a power loss — what the WAL
// compaction it unlocks relies on.
func (s *SnapshotStore) Save(seq uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	framed := make([]byte, 8+len(blob))
	binary.BigEndian.PutUint32(framed[:4], uint32(len(blob)))
	binary.BigEndian.PutUint32(framed[4:8], crc32.Checksum(blob, _crcTable))
	copy(framed[8:], blob)

	final := filepath.Join(s.dir, snapshotFileName(seq))
	tmp := final + ".tmp"
	if err := writeSynced(tmp, framed); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("storage: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("storage: publishing snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("storage: publishing snapshot: %w", err)
	}
	s.pruneLocked()
	return nil
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// pruneLocked removes everything but the newest retain snapshots (and any
// stray temp files).
func (s *SnapshotStore) pruneLocked() {
	names := s.snapshotNamesLocked()
	for i := 0; i < len(names)-s.retain; i++ {
		_ = os.Remove(filepath.Join(s.dir, names[i]))
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// snapshotNamesLocked lists snapshot files sorted ascending by name — the
// zero-padded sequence number makes that commit-sequence order.
func (s *SnapshotStore) snapshotNamesLocked() []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".snap") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Latest implements execution.SnapshotStore: the newest decodable snapshot.
// Corrupt files (torn writes from a crash, bit rot caught by the CRC) are
// skipped in favor of the next older one.
func (s *SnapshotStore) Latest() (execution.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := s.snapshotNamesLocked()
	for i := len(names) - 1; i >= 0; i-- {
		snap, err := readSnapshotFile(filepath.Join(s.dir, names[i]))
		if err == nil {
			return snap, true
		}
	}
	return execution.Snapshot{}, false
}

func readSnapshotFile(path string) (execution.Snapshot, error) {
	framed, err := os.ReadFile(path)
	if err != nil {
		return execution.Snapshot{}, err
	}
	if len(framed) < 8 {
		return execution.Snapshot{}, fmt.Errorf("storage: snapshot %s truncated", path)
	}
	size := binary.BigEndian.Uint32(framed[:4])
	sum := binary.BigEndian.Uint32(framed[4:8])
	body := framed[8:]
	if uint32(len(body)) != size {
		return execution.Snapshot{}, fmt.Errorf("storage: snapshot %s length mismatch", path)
	}
	if crc32.Checksum(body, _crcTable) != sum {
		return execution.Snapshot{}, fmt.Errorf("storage: snapshot %s checksum mismatch", path)
	}
	return execution.DecodeSnapshot(body)
}
