package validator

import (
	"path/filepath"
	"testing"

	"hammerhead/internal/engine"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
)

func logCert(round types.Round) *engine.Certificate {
	return &engine.Certificate{Header: engine.Header{Round: round, Signature: []byte("sig")}}
}

// TestLogCompactsAtTheCheckpointFloor: a published floor is applied by the
// next certificate append, once, and the highest proposal survives it.
func TestLogCompactsAtTheCheckpointFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	var compacted []types.Round
	l := NewLog(path, func(floor types.Round, err error) {
		if err != nil {
			t.Errorf("compaction to %d: %v", floor, err)
		}
		compacted = append(compacted, floor)
	})
	if err := l.replay(nil, nil); err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 6; r++ {
		if err := l.Append(logCert(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendProposal(&engine.Header{Round: 3, Signature: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	l.Checkpointed(4)
	if err := l.AppendProposal(&engine.Header{Round: 2, Signature: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	if len(compacted) != 0 {
		t.Fatalf("a proposal append compacted the log to %v", compacted)
	}
	if err := l.Append(logCert(7)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logCert(8)); err != nil {
		t.Fatal(err)
	}
	if len(compacted) != 1 || compacted[0] != 4 {
		t.Fatalf("compactions %v, want one to round 4", compacted)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := storage.Inspect(path)
	if err != nil || info.Certs != 5 || info.LowestRound != 4 || info.HighestRound != 8 ||
		info.Proposals != 1 || info.HighestProposal != 3 {
		t.Fatalf("compacted log holds %+v (err %v), want certificates 4..8 and the round-3 mark", info, err)
	}
}

// TestLogReopensAfterAFailedCompaction: a log a compaction left closed — its
// reopen failed — is reopened by the next write, which lands.
func TestLogReopensAfterAFailedCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := NewLog(path, nil)
	if err := l.replay(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logCert(1)); err != nil {
		t.Fatal(err)
	}
	// What CompactTo leaves when its reopen fails: the session closed.
	if err := l.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendProposal(&engine.Header{Round: 2, Signature: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logCert(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := storage.Inspect(path)
	if err != nil || info.Certs != 2 || info.HighestRound != 2 || info.Proposals != 1 || info.HighestProposal != 2 {
		t.Fatalf("log holds %+v (err %v), want both certificates and the proposal", info, err)
	}
}
