package execution

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/types"
)

// mergeStream builds commits 1..n: puts of new keys and overwrites, deletes
// of written keys and of keys never written, and opaque payloads, a few per
// commit, so the writes between two checkpoints stay well below the ledger's
// size once it has grown and most checkpoints merge.
func mergeStream(rng *rand.Rand, n int) []bullshark.CommittedSubDAG {
	stream := make([]bullshark.CommittedSubDAG, n+1)
	for seq := 1; seq <= n; seq++ {
		lists := make([][][]byte, 1+rng.Intn(2))
		for i := range lists {
			for j := rng.Intn(5); j > 0; j-- {
				k := []byte(fmt.Sprintf("k%03d", rng.Intn(120)))
				switch r := rng.Intn(10); {
				case r == 0:
					lists[i] = append(lists[i], DeleteOp(k))
				case r == 1:
					lists[i] = append(lists[i], DeleteOp([]byte(fmt.Sprintf("never-%d", rng.Intn(5)))))
				case r == 2:
					lists[i] = append(lists[i], []byte("opaque"))
				case r == 3:
					lists[i] = append(lists[i], PutOp(k, nil))
				default:
					lists[i] = append(lists[i], PutOp(k, []byte(fmt.Sprintf("v%d.%d", seq, j))))
				}
			}
		}
		stream[seq] = makeCommit(uint64(seq), types.Round(2*seq), lists...)
	}
	return stream
}

// fullEncodings replays stream into a bare ledger and returns, per commit
// sequence, the full encoding (encodeKV) of the state after it: what every
// checkpoint at that sequence must carry, however it was written.
func fullEncodings(stream []bullshark.CommittedSubDAG) [][]byte {
	s := NewKVState()
	enc := make([][]byte, len(stream))
	for seq := 1; seq < len(stream); seq++ {
		for _, v := range stream[seq].Vertices {
			if v.Batch != nil {
				for i := range v.Batch.Transactions {
					s.Apply(&v.Batch.Transactions[i])
				}
			}
		}
		enc[seq] = encodeKV(s.tree, s.version, s.opaque)
	}
	return enc
}

// flakyStore is a recordingStore whose Save fails once, at the failAt-th
// call.
type flakyStore struct {
	recordingStore
	mu     sync.Mutex
	calls  int // guarded by mu
	failAt int
}

var errFlakySave = errors.New("save failed")

func (s *flakyStore) Save(seq uint64, blob []byte) error {
	s.mu.Lock()
	s.calls++
	fail := s.calls == s.failAt
	s.mu.Unlock()
	if fail {
		return errFlakySave
	}
	return s.recordingStore.Save(seq, blob)
}

// TestCheckpointMergeMatchesFullEncode runs seeded streams through executors
// whose writer merges each checkpoint's writes into the previous one's bytes,
// with checkpoint intervals 1-4, certification on and off, writing inline
// and on the checkpoint goroutine. Every stream certifies cached checkpoints
// (so merges read resealed blobs), forces a checkpoint, fails one save (which
// breaks the chain), installs a snapshot from ahead (which breaks it again)
// and ends with Close's final checkpoint. Every blob saved or served must
// carry the full encoding of the state at its sequence.
func TestCheckpointMergeMatchesFullEncode(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, certs := range []bool{false, true} {
			for _, started := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/certs=%v/started=%v", seed, certs, started), func(t *testing.T) {
					mergeMatchesFullEncode(t, seed, certs, started)
				})
			}
		}
	}
}

func mergeMatchesFullEncode(t *testing.T, seed int64, certs, started bool) {
	rng := rand.New(rand.NewSource(seed))
	const n = 120
	stream := mergeStream(rng, n)
	want := fullEncodings(stream)
	interval := uint64(1 + rng.Intn(4))
	store := &flakyStore{failAt: 3 + rng.Intn(8)}
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: interval, CheckpointCerts: certs, Store: store})
	if started {
		x.Start()
	}
	applied := 0
	// settle has the writer finish what it was handed, so blobs are checked at
	// rest.
	settle := func() {
		if started {
			x.drain()
		}
	}
	checked := 0
	check := func(at string, blob []byte) {
		t.Helper()
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: blob does not decode: %v", at, err)
		}
		if !bytes.Equal(snap.Data, want[snap.CommitSeq]) {
			t.Fatalf("%s: checkpoint at seq %d carries %d state bytes, not the full encoding's %d",
				at, snap.CommitSeq, len(snap.Data), len(want[snap.CommitSeq]))
		}
	}
	checkAll := func(step int) {
		t.Helper()
		saves := store.log()
		for ; checked < len(saves); checked++ {
			check(fmt.Sprintf("step %d: save %d", step, checked), saves[checked].blob)
		}
		if _, blob, ok := x.LatestSnapshot(); ok {
			check(fmt.Sprintf("step %d: latest", step), blob)
		}
		x.mu.Lock()
		prev := x.prev
		x.mu.Unlock()
		if prev != nil {
			if _, blob, ok := x.SnapshotAt(prev.snap.Round); ok {
				check(fmt.Sprintf("step %d: previous", step), blob)
			}
		}
		if blob, ok := x.CertifiedSnapshotBlob(); ok {
			check(fmt.Sprintf("step %d: certified", step), blob)
		}
	}
	forceAt, installAt := 20+rng.Intn(30), 60+rng.Intn(30)
	forced, installed := false, false
	tag := byte(0)
	for step := 0; applied < n; step++ {
		switch r := rng.Intn(10); {
		case !forced && applied >= forceAt:
			forced = true
			settle()
			snap, err := x.ForceCheckpoint()
			if err != nil {
				t.Fatalf("step %d: forced checkpoint: %v", step, err)
			}
			if !bytes.Equal(snap.Data, want[snap.CommitSeq]) {
				t.Fatalf("step %d: forced checkpoint at seq %d differs from the full encoding", step, snap.CommitSeq)
			}
		case !installed && applied >= installAt:
			installed = true
			settle()
			upTo := applied + 2 + rng.Intn(8)
			producer := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62})
			for seq := 1; seq <= upTo; seq++ {
				producer.ApplyCommit(stream[seq])
			}
			snap, err := producer.ForceCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				tag++
				snap.Cert = testCert(snap.CommitSeq, tag)
			}
			if err := x.install(snap, acceptState); err != nil {
				t.Fatalf("step %d: install at %d: %v", step, upTo, err)
			}
			applied = upTo
		case r < 3:
			// Certify the latest or previous checkpoint: the writer reseals its
			// blob, and the next merge reads the KV bytes out of the copy.
			x.mu.Lock()
			var seq uint64
			if c := x.latest; c != nil {
				seq = c.snap.CommitSeq
			}
			if c := x.prev; c != nil && rng.Intn(3) == 0 {
				seq = c.snap.CommitSeq
			}
			x.mu.Unlock()
			tag++
			x.AttachCertificate(seq, testCert(seq, tag))
		default:
			applied++
			x.ApplyCommit(stream[applied])
		}
		settle()
		checkAll(step)
	}
	x.Close()
	checkAll(-1)
	saves := store.log()
	if last := saves[len(saves)-1]; last.seq != n {
		t.Fatalf("the last save is at seq %d, want Close's final checkpoint at %d", last.seq, n)
	}
	if store.calls < store.failAt {
		t.Fatalf("%d saves, so the one meant to fail (%d) never came", store.calls, store.failAt)
	}
}

// TestCheckpointChainRule pins when a view's writes may be merged into an
// earlier view's bytes: only into those of the Freeze immediately before it,
// not after a Restore, and not once the list outgrew a quarter of the
// ledger. Where the rule allows a merge, the merge is the full encoding.
func TestCheckpointChainRule(t *testing.T) {
	s := NewKVState()
	for i := 0; i < 50; i++ {
		applyPut(s, fmt.Sprintf("k%02d", i), "v")
	}
	first := s.Freeze()
	base := first.Snapshot()
	applyPut(s, "k07", "w")
	applyPut(s, "k07", "x") // repeated: the dedupe
	applyPut(s, "k99", "")  // inserted past the last cell
	applyPut(s, "a", "y")   // inserted before the first
	s.Apply(&types.Transaction{Payload: DeleteOp([]byte("k10"))})
	s.Apply(&types.Transaction{Payload: DeleteOp([]byte("k00"))})   // the first cell
	s.Apply(&types.Transaction{Payload: DeleteOp([]byte("never"))}) // never written
	s.Apply(&types.Transaction{Payload: []byte("xx")})              // opaque: the header
	second := s.Freeze()
	if !second.follows(first.gen) {
		t.Fatal("a view does not follow the one frozen just before it")
	}
	full := second.Snapshot()
	edits, _ := second.edits()
	if got := second.appendKVMerged(nil, base, edits); !bytes.Equal(got, full) {
		t.Fatalf("merged encoding differs from the full one:\n got %x\nwant %x", got, full)
	}
	third := s.Freeze()
	if third.follows(first.gen) {
		t.Fatal("a view follows one frozen two Freezes before it")
	}
	if err := s.Restore(full); err != nil {
		t.Fatal(err)
	}
	after := s.Freeze()
	if after.follows(third.gen) {
		t.Fatal("a view follows across a Restore")
	}
	quarter := s.Len() / 4
	for i := 0; i < quarter; i++ {
		applyPut(s, "k20", fmt.Sprint(i))
	}
	if at := s.Freeze(); !at.follows(after.gen) {
		t.Fatalf("a view with %d writes over %d keys does not follow", quarter, s.Len())
	}
	for i := 0; i <= quarter; i++ {
		applyPut(s, "k20", fmt.Sprint(i))
	}
	if over := s.Freeze(); over.follows(over.gen - 1) {
		t.Fatalf("a view with %d writes over %d keys follows", quarter+1, s.Len())
	}
}
