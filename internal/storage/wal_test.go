package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

func testCert(round types.Round, source types.ValidatorID) *engine.Certificate {
	return &engine.Certificate{
		Header: engine.Header{
			Round:  round,
			Source: source,
			Edges:  []types.Digest{types.HashBytes([]byte{byte(round)})},
			Batch: &types.Batch{Transactions: []types.Transaction{
				{ID: uint64(round)*100 + uint64(source), Payload: []byte("p")},
			}},
			Signature: []byte("sig"),
		},
		Votes: []engine.VoteSig{{Voter: 0, Signature: []byte("v0")}, {Voter: 1, Signature: []byte("v1")}},
	}
}

func replayAll(t *testing.T, path string) []*engine.Certificate {
	t.Helper()
	var got []*engine.Certificate
	if _, err := ReplayPrefixRecords(path, func(c *engine.Certificate) error {
		got = append(got, c)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []*engine.Certificate{testCert(1, 0), testCert(1, 1), testCert(2, 0)}
	for _, c := range want {
		if err := w.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if w.Appended() != 3 {
		t.Fatalf("Appended = %d", w.Appended())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Digest() != want[i].Digest() {
			t.Fatalf("record %d digest mismatch", i)
		}
		if got[i].Header.Batch.Transactions[0].ID != want[i].Header.Batch.Transactions[0].ID {
			t.Fatalf("record %d batch mangled", i)
		}
		if len(got[i].Votes) != 2 {
			t.Fatalf("record %d votes mangled", i)
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	if got := replayAll(t, filepath.Join(t.TempDir(), "nope.log")); len(got) != 0 {
		t.Fatalf("replayed %d records from a missing file", len(got))
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 3; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop 5 bytes off the file.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
}

func TestReplayStopsAtCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's body.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 1 {
		t.Fatalf("replayed %d records with corrupt second record, want 1", len(got))
	}
}

func TestReopenAfterTornTailKeepsLaterAppends(t *testing.T) {
	// Crash mid-append regression: a torn final record must be truncated on
	// reopen. Before the fix, reopen appended AFTER the garbage, so the next
	// replay (which stops at the first bad record) lost every certificate
	// persisted after the crash.
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 3; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the third record (crash mid-append), leaving a partial tail.
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(4); r <= 5; r++ {
		if err := w2.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, path)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4 (2 intact + 2 post-crash)", len(got))
	}
	wantRounds := []types.Round{1, 2, 4, 5}
	for i, c := range got {
		if c.Header.Round != wantRounds[i] {
			t.Fatalf("record %d round = %d, want %d", i, c.Header.Round, wantRounds[i])
		}
	}
}

func TestOpenWALTrimmedUsesReplayPrefix(t *testing.T) {
	// The node's recovery path: ReplayPrefixRecords measures the valid prefix and
	// OpenWALTrimmed truncates to it without re-scanning; appends after a
	// torn tail stay reachable.
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 3; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	replayed := 0
	valid, err := ReplayPrefixRecords(path, func(*engine.Certificate) error { replayed++; return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 2 || valid <= 0 || valid >= info.Size() {
		t.Fatalf("replayed=%d valid=%d (file %d)", replayed, valid, info.Size())
	}
	w2, err := OpenWALTrimmed(path, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(testCert(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}

func TestOpenWALTruncatesGarbageTail(t *testing.T) {
	// A tail whose CRC does not match (partially synced sector) must also be
	// dropped, not just short headers/bodies.
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 4, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(testCert(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
}

func TestReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(testCert(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 2 {
		t.Fatalf("replayed %d records after reopen, want 2", len(got))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(1, 0)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCompactDropsOldRounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 10; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Compact(path, 6); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 5 {
		t.Fatalf("compacted log has %d records, want 5 (rounds 6..10)", len(got))
	}
	for _, c := range got {
		if c.Header.Round < 6 {
			t.Fatalf("round %d survived compaction below floor 6", c.Header.Round)
		}
	}
	// The compacted log remains appendable.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(testCert(11, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 6 {
		t.Fatalf("post-compaction append: %d records, want 6", len(got))
	}
}

func TestSyncEveryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SyncEveryAppend = true
	if err := w.Append(testCert(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 1 {
		t.Fatalf("replayed %d, want 1", len(got))
	}
}

func TestInspectReportsReplayFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "certs.log")

	// A missing log is an empty frontier, not an error (mirrors replay).
	info, err := Inspect(path)
	if err != nil || info.Certs != 0 || info.ValidBytes != 0 {
		t.Fatalf("missing log: info=%+v err=%v", info, err)
	}

	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(3); r <= 7; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err = Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs != 5 || info.LowestRound != 3 || info.HighestRound != 7 {
		t.Fatalf("info = %+v, want 5 certs over rounds [3,7]", info)
	}
	if st, err := os.Stat(path); err != nil || info.ValidBytes != st.Size() {
		t.Fatalf("ValidBytes = %d, want full size %v (err=%v)", info.ValidBytes, st, err)
	}

	// A torn tail is excluded from the frontier, exactly as replay excludes it.
	if err := os.Truncate(path, info.ValidBytes-1); err != nil {
		t.Fatal(err)
	}
	info, err = Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs != 4 || info.HighestRound != 6 {
		t.Fatalf("torn-tail info = %+v, want 4 certs up to round 6", info)
	}
}

func TestCompactToShrinksOpenWALAndKeepsAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 10; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}

	// Compact the OPEN log: rounds below 6 are covered by a checkpoint.
	if err := w.CompactTo(6); err != nil {
		t.Fatal(err)
	}
	after, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.LowestRound != 6 || after.Certs != 5 {
		t.Fatalf("compacted info = %+v, want 5 certs from round 6", after)
	}
	if after.ValidBytes >= before.ValidBytes {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.ValidBytes, after.ValidBytes)
	}

	// The append session survives the handle swap.
	if err := w.Append(testCert(11, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 6 || got[0].Header.Round != 6 || got[5].Header.Round != 11 {
		rounds := make([]types.Round, len(got))
		for i, c := range got {
			rounds[i] = c.Header.Round
		}
		t.Fatalf("post-compaction replay rounds = %v, want [6..10, 11]", rounds)
	}

	// Compacting a closed WAL is refused.
	if err := w.CompactTo(8); err == nil {
		t.Fatal("CompactTo on a closed WAL must fail")
	}
}

// TestCompactToAllocatesCopyBuffersOnly bounds what a compaction of an open
// log allocates: the session keeps its writer across the handle swap and the
// rewrite streams through copy-sized buffers. A fresh megabyte each for the
// session writer, the temp log's writer and the replay reader — 3 MiB per
// checkpoint floor advance — is what it used to cost.
func TestCompactToAllocatesCopyBuffersOnly(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "certs.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const passes = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := types.Round(1); r <= passes; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
		if err := w.CompactTo(r); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perPass := (after.TotalAlloc - before.TotalAlloc) / passes; perPass > 4*_compactBufSize {
		t.Fatalf("a compaction allocates %d KiB, want at most %d (two %d KiB copy buffers and the records)",
			perPass>>10, 4*_compactBufSize>>10, _compactBufSize>>10)
	}
}

func TestCompactIgnoresStaleTempFile(t *testing.T) {
	// A crash mid-compaction leaves <path>.compact behind; the next
	// compaction must start from scratch, not append after the stale prefix
	// (which would rename below-floor and duplicate records into the live
	// log).
	path := filepath.Join(t.TempDir(), "wal", "certs.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 6; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate the stale temp file: valid records well below the floor.
	stale, err := OpenWAL(path + ".compact")
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 3; r++ {
		if err := stale.Append(testCert(r, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}

	if err := w.CompactTo(4); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range replayAll(t, path) {
		if c.Header.Round < 4 {
			t.Fatalf("stale temp-file record (round %d, v%d) leaked into the compacted log",
				c.Header.Round, c.Header.Source)
		}
	}
}

// testProposal builds a signed-looking own-slot header record.
func testProposal(round types.Round, source types.ValidatorID) *engine.Header {
	return &engine.Header{
		Round:     round,
		Source:    source,
		Signature: []byte("proposal-sig"),
	}
}

// TestProposalRecordsRoundTrip: proposal records interleave with certificate
// records, replay keeps the two streams separate and in order, and the
// certificate-only replay skips proposals entirely.
func TestProposalRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendProposal(testProposal(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendProposal(testProposal(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var certs, props []types.Round
	if _, err := ReplayPrefixRecords(path, func(c *engine.Certificate) error {
		certs = append(certs, c.Header.Round)
		return nil
	}, func(h *engine.Header) error {
		props = append(props, h.Round)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(certs) != 2 || certs[0] != 1 || certs[1] != 2 {
		t.Fatalf("cert rounds = %v, want [1 2]", certs)
	}
	if len(props) != 2 || props[0] != 2 || props[1] != 3 {
		t.Fatalf("proposal rounds = %v, want [2 3]", props)
	}

	// Certificate-only replay must skip proposal records.
	if got := replayAll(t, path); len(got) != 2 {
		t.Fatalf("certificate-only replay yielded %d certs, want 2", len(got))
	}

	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Proposals != 2 || info.HighestProposal != 3 {
		t.Fatalf("Inspect proposals = %d highest = %d, want 2/3", info.Proposals, info.HighestProposal)
	}
}

// TestSyncedProposalSurvivesTornTail pins the durability contract the node's
// synchronous proposal persistence relies on: once AppendProposal + Sync has
// returned, the proposal record survives any crash — including one that
// tears a LATER record mid-write. This is the regression for the
// proposal-record torn-tail window: before the node fsynced the record and
// blocked the proposer on it, the header could reach peers while the
// voted-mark was still in the page cache, and a crash there re-proposed
// (equivocated) the slot on restart.
func TestSyncedProposalSurvivesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testCert(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendProposal(testProposal(5, 0)); err != nil {
		t.Fatal(err)
	}
	// The durability point the proposer waits behind before broadcasting.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// A later certificate append is in flight when the process dies...
	if err := w.Append(testCert(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and the crash tears it mid-record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	var certs []types.Round
	var prop *engine.Header
	if _, err := ReplayPrefixRecords(path, func(c *engine.Certificate) error {
		certs = append(certs, c.Header.Round)
		return nil
	}, func(h *engine.Header) error {
		prop = h
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(certs) != 1 || certs[0] != 1 {
		t.Fatalf("cert rounds = %v, want [1] (torn record dropped)", certs)
	}
	if prop == nil || prop.Round != 5 {
		t.Fatalf("synced proposal record lost to the torn tail: got %+v", prop)
	}
}

// TestCompactKeepsProposalHighWaterMark: compaction drops below-floor
// proposal records like certificates, but the HIGHEST proposal always
// survives — it is the anti-equivocation mark, and losing it would widen the
// slot-equivocation window after the next restart.
func TestCompactKeepsProposalHighWaterMark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 6; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendProposal(testProposal(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Floor above every proposal: the mark at round 6 must still survive.
	if err := Compact(path, 10); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs != 0 {
		t.Fatalf("compaction kept %d below-floor certs", info.Certs)
	}
	if info.Proposals != 1 || info.HighestProposal != 6 {
		t.Fatalf("proposals after compaction = %d highest = %d, want the round-6 mark only", info.Proposals, info.HighestProposal)
	}
}

// TestUnknownVersionTagIsRefusedNotErased: a record that passes its CRC under
// a version tag this binary does not write is a log from another format
// generation, not a torn tail. Every scan must refuse it with an error naming
// the tag and offset and leave the file byte-identical — treating it as the
// end of the valid prefix would have OpenWAL truncate the whole history away.
// The same byte damaged WITHOUT a matching CRC stays a torn tail.
func TestUnknownVersionTagIsRefusedNotErased(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 3; r++ {
		if err := w.Append(testCert(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Retag the first record and fix its CRC up, as a binary of another
	// format generation would have written it.
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := want[8 : 8+binary.BigEndian.Uint32(want[:4])]
	first[0] = 0x03
	binary.BigEndian.PutUint32(want[4:8], crc32.Checksum(first, _crcTable))
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}

	refused := func(op string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "version tag 0x03") || !strings.Contains(err.Error(), "byte offset 0") {
			t.Fatalf("%s: err = %v, want a refusal naming tag 0x03 at byte offset 0", op, err)
		}
		if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed the refused log (%d -> %d bytes, err %v)", op, len(want), len(got), rerr)
		}
	}
	_, err = OpenWAL(path)
	refused("OpenWAL", err)
	_, err = ReplayPrefixRecords(path, func(*engine.Certificate) error { return nil }, nil)
	refused("ReplayPrefixRecords", err)
	_, err = Inspect(path)
	refused("Inspect", err)
	refused("Compact", Compact(path, 2))

	// Torn, not foreign: the same record with one more byte flipped and no
	// CRC fix-up fails its checksum before anyone reads the tag, so the open
	// truncates and carries on as it always has.
	torn := append([]byte(nil), want...)
	torn[9] ^= 0xFF
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatalf("CRC-failed record must stay a torn tail: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != 0 {
		t.Fatalf("torn first record not truncated: size %d, err %v", info.Size(), err)
	}
}
