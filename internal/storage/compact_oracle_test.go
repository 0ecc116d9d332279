package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// compactPerRecord is Compact as it was before the copy went through the
// temp log's buffer: every record flushed to the file as it is appended, and
// no directory fsync after the rename. It is the oracle for the bytes Compact
// writes.
func compactPerRecord(path string, floor types.Round) error {
	tmp := path + ".compact"
	if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: clearing stale compaction file: %w", err)
	}
	out, err := openWALAppend(tmp, _copyBufSize)
	if err != nil {
		return err
	}
	var bestBelow *engine.Header
	keptMark := false
	_, replayErr := replayRecords(path, _copyBufSize, func(cert *engine.Certificate) error {
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

// TestCompactMatchesPerRecordOracle: buffering the copy changes when bytes
// reach the temp file, not which. Over seeded logs — certificates of mixed
// rounds and sizes, some larger than the copy buffer, proposals above and
// below the floor or none — and floors below, inside and above the logged
// rounds, Compact writes exactly the file the per-record oracle writes.
func TestCompactMatchesPerRecordOracle(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var src []byte
		{
			path := filepath.Join(dir, "src")
			_ = os.Remove(path)
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 1 + rng.Intn(30)
			for r := types.Round(1); r <= types.Round(rounds); r++ {
				for v := 0; v < 1+rng.Intn(4); v++ {
					cert := testCert(r, types.ValidatorID(v))
					if rng.Intn(8) == 0 { // larger than the 64 KiB copy buffer
						cert.Header.Batch.Transactions[0].Payload = bytes.Repeat([]byte{byte(r)}, _copyBufSize+rng.Intn(_copyBufSize))
					}
					if err := w.Append(cert); err != nil {
						t.Fatal(err)
					}
				}
				if seed%5 != 0 && rng.Intn(3) == 0 {
					if err := w.AppendProposal(testProposal(r, 0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if src, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		for _, floor := range []types.Round{0, 1, types.Round(1 + rng.Intn(30)), 40} {
			compacted := func(compact func(string, types.Round) error, name string) []byte {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := compact(path, floor); err != nil {
					t.Fatalf("seed %d floor %d: %s: %v", seed, floor, name, err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			want := compacted(compactPerRecord, "oracle")
			got := compacted(Compact, "buffered")
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d floor %d: Compact wrote %d bytes, the per-record oracle %d; they differ", seed, floor, len(got), len(want))
			}
		}
	}
}
