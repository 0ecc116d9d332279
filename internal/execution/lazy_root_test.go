package execution

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hammerhead/internal/merkle"
	"hammerhead/internal/types"
)

// TestRootReadPerTxEqualsRootReadAtEnd holds the deferred hashing to its
// contract: when Root() is read must not matter. One ledger reads it after
// every transaction (every write flushed alone, the way the trie used to
// work), the other only where the executor does — at a mid-stream Freeze and
// at the end — and the digests, the frozen views and the snapshot bytes agree.
func TestRootReadPerTxEqualsRootReadAtEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eager, lazy := NewKVState(), NewKVState()
	var frozenEager, frozenLazy *FrozenKV
	const txs = 4000
	for i := 0; i < txs; i++ {
		k := []byte(fmt.Sprintf("key-%03d", rng.Intn(200)))
		var payload []byte
		switch rng.Intn(10) {
		case 0:
			payload = DeleteOp(k)
		case 1:
			payload = []byte("opaque")
		case 2:
			payload = PutOp(k, nil)
		default:
			payload = PutOp(k, []byte(fmt.Sprintf("value-%d", i)))
		}
		tx := &types.Transaction{ID: uint64(i), Payload: payload}
		eager.Apply(tx)
		eager.Root()
		lazy.Apply(tx)
		if i == txs/2 {
			frozenEager, frozenLazy = eager.Freeze(), lazy.Freeze()
		}
	}
	if eager.Root() != lazy.Root() || eager.MerkleRoot() != lazy.MerkleRoot() {
		t.Fatalf("root read per tx %s, read at the end %s", eager.Root(), lazy.Root())
	}
	if frozenEager.Root() != frozenLazy.Root() {
		t.Fatalf("mid-stream frozen views differ: %s vs %s", frozenEager.Root(), frozenLazy.Root())
	}
	a, errA := eager.Snapshot()
	b, errB := lazy.Snapshot()
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ (%d vs %d bytes, errs %v %v)", len(a), len(b), errA, errB)
	}
}

// TestInstalledSnapshotServesVerifiableProofs: the trie an install rebuilds
// (every node written, nothing hashed until the digest check) proves keys
// against the checkpoint's state digest, before and after more commits.
func TestInstalledSnapshotServesVerifiableProofs(t *testing.T) {
	producer := runProducer(t, 40)
	snap, err := producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKVState()
	fresh := NewExecutor(kv, Config{CheckpointInterval: 1000})
	if err := fresh.Install(snap); err != nil {
		t.Fatal(err)
	}
	installed := kv.Freeze()
	check := func(view interface {
		Prove([]byte) merkle.Proof
		Counters() (uint64, uint64)
	}, digest types.Digest, key byte, want string) {
		t.Helper()
		p := view.Prove([]byte{key})
		root, entry, err := p.Verify([]byte{key})
		version, opaque := view.Counters()
		if err != nil || StateDigestFrom(version, opaque, root) != digest {
			t.Fatalf("key %d: proof does not fold to the state digest (err %v)", key, err)
		}
		if entry.Found != (want != "") || string(entry.Value) != want {
			t.Fatalf("key %d: proven (%q, found=%v), want %q", key, entry.Value, entry.Found, want)
		}
	}
	check(kv, snap.StateDigest, 7, "v")
	check(kv, snap.StateDigest, 200, "")
	fresh.ApplyCommit(makeCommit(41, 82, [][]byte{PutOp([]byte{7}, []byte("later")), DeleteOp([]byte{8})}))
	check(kv, fresh.StateDigest(), 7, "later")
	check(kv, fresh.StateDigest(), 8, "")
	check(installed, snap.StateDigest, 7, "v")
	check(installed, snap.StateDigest, 8, "v")
}

// TestReadKVValueSurvivesOverwrites pins the promise in ReadKV's comment: a
// value slice handed out is never written again, whether the overwrite
// replaces the leaf (first write after a checkpoint) or updates it in place
// (every further write before the next one).
func TestReadKVValueSurvivesOverwrites(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	put := func(seq uint64, value string) {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2), [][]byte{PutOp([]byte("a"), []byte(value))}))
	}
	put(1, "first")
	held := map[string][]byte{}
	hold := func(want string) {
		r, ok := x.ReadKV([]byte("a"))
		if !ok || string(r.Value) != want {
			t.Fatalf("read %q (ok=%v), want %q", r.Value, ok, want)
		}
		held[want] = r.Value
	}
	hold("first")
	put(2, "2nd") // in place: same generation as the insert
	hold("2nd")
	if _, err := x.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	put(3, "third!") // the checkpoint's frozen view shares the leaf: replaced
	hold("third!")
	put(4, "4") // in place again
	for want, got := range held {
		if string(got) != want {
			t.Fatalf("value slice read as %q now reads %q", want, got)
		}
	}
}

// TestRootAtRetainsTheLastRingOfCommits: the ring grows with the commits
// applied, and answers exactly as the fixed array did — the most recent
// rootRingSize sequences, nothing older, nothing ahead, nothing from before
// an install.
func TestRootAtRetainsTheLastRingOfCommits(t *testing.T) {
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 30})
	const extra = 5
	roots := make([]types.Digest, rootRingSize+extra+1)
	for seq := uint64(1); seq <= rootRingSize+extra; seq++ {
		x.ApplyCommit(makeCommit(seq, types.Round(seq*2)))
		roots[seq] = x.StateRoot()
		if seq == 3 {
			if _, ok := x.RootAt(4); ok {
				t.Fatal("RootAt served a sequence not applied yet")
			}
			if _, ok := x.RootAt(rootRingSize + 2); ok {
				t.Fatal("RootAt served a sequence one ring ahead of an applied one")
			}
			x.mu.Lock()
			held := len(x.roots)
			x.mu.Unlock()
			if held > 8 {
				t.Fatalf("ring holds %d entries after 3 commits", held)
			}
		}
	}
	for _, seq := range []uint64{0, 1, extra, rootRingSize + extra + 1} {
		if _, ok := x.RootAt(seq); ok {
			t.Fatalf("RootAt(%d) served an expired or future sequence", seq)
		}
	}
	for _, seq := range []uint64{extra + 1, rootRingSize, rootRingSize + extra} {
		if got, ok := x.RootAt(seq); !ok || got != roots[seq] {
			t.Fatalf("RootAt(%d) = %s (ok=%v), want %s", seq, got, ok, roots[seq])
		}
	}

	producer := runProducer(t, 3*rootRingSize/2)
	snap, err := producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	small := runProducer(t, 10)
	if err := small.Install(snap); err != nil {
		t.Fatal(err)
	}
	if got, ok := small.RootAt(snap.CommitSeq); !ok || got != snap.StateRoot {
		t.Fatalf("RootAt(installed seq) = %s (ok=%v), want %s", got, ok, snap.StateRoot)
	}
	if _, ok := small.RootAt(10); ok {
		t.Fatal("RootAt served a pre-install sequence")
	}
}
