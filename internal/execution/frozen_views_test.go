package execution

import (
	"fmt"
	"testing"

	"hammerhead/internal/types"
)

// frozenViews reads the views the executor holds for its two cached
// checkpoints and the certified read state, under its lock.
func frozenViews(x *Executor) (latest, prev, certified *FrozenKV) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.latest != nil {
		latest = x.latest.frozen
	}
	if x.prev != nil {
		prev = x.prev.frozen
	}
	return latest, prev, x.certifiedKV
}

// overwriteAllocs reports what one overwrite of a preloaded key allocates,
// averaged over keys[from:to], each written once.
func overwriteAllocs(kv *KVState, keys [][]byte, from, to int) float64 {
	txs := make([]types.Transaction, 0, to-from)
	for _, k := range keys[from:to] {
		txs = append(txs, types.Transaction{Payload: PutOp(k, []byte("overwritten"))})
	}
	i := 0
	// AllocsPerRun makes one warm-up call on top of the counted ones.
	return testing.AllocsPerRun(len(txs)-1, func() {
		kv.Apply(&txs[i])
		i++
	})
}

// TestNoFrozenViewsWithoutCertification: nothing reads a frozen view unless
// checkpoint certification is on, so an executor without it holds none after
// any number of checkpoints, and a checkpoint leaves the live trie owning its
// nodes: an overwrite allocates after one exactly what it did before. With
// certification on the same overwrite pays for copying its path out of the
// frozen generation — the cost the first case no longer has.
func TestNoFrozenViewsWithoutCertification(t *testing.T) {
	for _, certs := range []bool{false, true} {
		kv := NewKVState()
		x := NewExecutor(kv, Config{CheckpointInterval: 4, CheckpointCerts: certs})
		keys := make([][]byte, 3*256)
		var puts [][]byte
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("acct-%04d", i))
			puts = append(puts, PutOp(keys[i], []byte("preloaded")))
		}
		for seq := uint64(1); seq <= 24; seq++ {
			x.ApplyCommit(makeCommit(seq, types.Round(2*seq), puts[(seq-1)*32:seq*32]))
		}
		// Cut at seqs 5, 9, 13, 17 and 21: each seq ≡ 0 (mod 4) commits an
		// anchor ≡ 0 (mod 4), so the cut moves to the next commit.
		if x.Checkpoints() != 5 {
			t.Fatalf("certs=%v: %d checkpoints, want 5", certs, x.Checkpoints())
		}
		latest, prev, certified := frozenViews(x)
		if held := latest != nil || prev != nil || certified != nil; held != certs {
			t.Fatalf("certs=%v: executor holds frozen views: %v (latest %p prev %p certified %p)",
				certs, held, latest, prev, certified)
		}

		overwriteAllocs(kv, keys, 0, 256) // every path the measurement walks is owned by the live trie
		before := overwriteAllocs(kv, keys, 256, 512)
		if _, err := x.ForceCheckpoint(); err != nil {
			t.Fatal(err)
		}
		after := overwriteAllocs(kv, keys, 512, 768)
		if !certs && after != before {
			t.Fatalf("an overwrite allocates %.1f objects after a checkpoint, %.1f before: the checkpoint started a copy-on-write generation nobody reads", after, before)
		}
		if certs && after <= before {
			t.Fatalf("with certification on an overwrite allocates %.1f objects after a checkpoint, %.1f before: the frozen view shares nothing with the live trie?", after, before)
		}
	}
}

// TestUncertifiedExecutorStillCarriesCertificates: without certification an
// attached certificate still rides in the served snapshot (state-sync peers
// may want it) — it just promotes no view, and there is no proven read.
func TestUncertifiedExecutorStillCarriesCertificates(t *testing.T) {
	_, keys, _ := certCommittee(t)
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000})
	x.ApplyCommit(makeCommit(1, 2, [][]byte{PutOp([]byte("k"), []byte("v"))}))
	snap, err := x.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !x.AttachCertificate(snap.CommitSeq, quorumCertFor(t, snap, keys, 3)) {
		t.Fatal("attach to the cached checkpoint failed")
	}
	if _, ok := x.ProvenRead([]byte("k")); ok {
		t.Fatal("proven read served by an executor that keeps no frozen view")
	}
	blob, ok := x.CertifiedSnapshotBlob()
	if !ok {
		t.Fatal("certified snapshot blob not served")
	}
	if decoded, err := DecodeSnapshot(blob); err != nil || decoded.Cert == nil {
		t.Fatalf("served blob lost its certificate (err %v)", err)
	}
}

// provenValue serves and verifies one proof-carrying read, returning the
// value and the sequence of the certificate it verified against.
func provenValue(t *testing.T, x *Executor, key []byte) (value string, certSeq uint64) {
	t.Helper()
	pr, ok := x.ProvenRead(key)
	if !ok {
		t.Fatal("no proven read")
	}
	root, entry, err := pr.Proof.Verify(key)
	if err != nil {
		t.Fatalf("proof verify: %v", err)
	}
	if StateDigestFrom(pr.Version, pr.Opaque, root) != pr.Cert.Meta.StateDigest {
		t.Fatal("proof root + counters do not reproduce the certified state digest")
	}
	return string(entry.Value), pr.Cert.Meta.CommitSeq
}

// TestFrozenViewsFollowCertification walks the view lifecycle with
// certification on: the previous checkpoint's view is kept exactly as long as
// its certificate could still arrive first, serves proofs if it does, and is
// released — with every older view — the moment the latest is certified.
func TestFrozenViewsFollowCertification(t *testing.T) {
	_, keys, _ := certCommittee(t)
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, CheckpointCerts: true})
	put := func(seq uint64, value string) Snapshot {
		t.Helper()
		x.ApplyCommit(makeCommit(seq, types.Round(2*seq), [][]byte{PutOp([]byte("k"), []byte(value))}))
		snap, err := x.ForceCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	first := put(1, "one")
	second := put(2, "two")
	latest, prev, certified := frozenViews(x)
	if prev == nil || latest == nil || prev == latest {
		t.Fatal("two uncertified checkpoints must each hold their view")
	}

	// The older certificate lands first: proofs serve the older state, and
	// the newer view keeps waiting for its own.
	if !x.AttachCertificate(first.CommitSeq, quorumCertFor(t, first, keys, 3)) {
		t.Fatal("attach to the previous checkpoint failed")
	}
	if v, seq := provenValue(t, x, []byte("k")); v != "one" || seq != 1 {
		t.Fatalf("proven read = %q at seq %d, want \"one\" at 1", v, seq)
	}
	if latest, prev, certified = frozenViews(x); latest == nil || certified != prev {
		t.Fatal("certifying the previous checkpoint must promote its view and keep the latest's")
	}

	// The latest is certified: its view is the only one left reachable.
	if !x.AttachCertificate(second.CommitSeq, quorumCertFor(t, second, keys, 3)) {
		t.Fatal("attach to the latest checkpoint failed")
	}
	if v, seq := provenValue(t, x, []byte("k")); v != "two" || seq != 2 {
		t.Fatalf("proven read = %q at seq %d, want \"two\" at 2", v, seq)
	}
	if latest, prev, certified = frozenViews(x); prev != nil || certified != latest {
		t.Fatalf("after the latest checkpoint is certified an older view is still reachable (prev %p, certified %p, latest %p)",
			prev, certified, latest)
	}

	// A straggling certificate for the older checkpoint still binds to its
	// cached snapshot, and moves nothing back.
	if !x.AttachCertificate(first.CommitSeq, quorumCertFor(t, first, keys, 3)) {
		t.Fatal("late attach to the previous checkpoint refused")
	}
	if v, seq := provenValue(t, x, []byte("k")); v != "two" || seq != 2 {
		t.Fatalf("a late certificate regressed proven reads to %q at seq %d", v, seq)
	}

	// The next checkpoint rotates the certified view to prev — the same
	// view, not an extra one — and its own certification releases it.
	third := put(3, "three")
	if latest, prev, certified = frozenViews(x); prev != certified || latest == certified {
		t.Fatal("rotation must carry the certified view as prev beside the new one")
	}
	if v, _ := provenValue(t, x, []byte("k")); v != "two" {
		t.Fatalf("proven read = %q before the new checkpoint is certified, want \"two\"", v)
	}
	x.AttachCertificate(third.CommitSeq, quorumCertFor(t, third, keys, 3))
	if latest, prev, certified = frozenViews(x); prev != nil || certified != latest {
		t.Fatal("certifying the third checkpoint left an older view reachable")
	}

	// Installing a certified snapshot serves proofs at once and likewise
	// keeps no view from before it.
	blobMeta, blob, ok := x.LatestSnapshot()
	if !ok {
		t.Fatal("no snapshot to install")
	}
	y := NewExecutor(NewKVState(), Config{CheckpointInterval: 1000, CheckpointCerts: true})
	y.ApplyCommit(makeCommit(1, 2, [][]byte{PutOp([]byte("k"), []byte("stale"))}))
	if _, err := y.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := y.InstallFromWire(blobMeta, blob, acceptState); err != nil {
		t.Fatalf("installing the certified snapshot: %v", err)
	}
	if v, seq := provenValue(t, y, []byte("k")); v != "three" || seq != 3 {
		t.Fatalf("installed executor proves %q at seq %d, want \"three\" at 3", v, seq)
	}
	if latest, prev, certified = frozenViews(y); prev != nil || certified != latest {
		t.Fatal("install of a certified snapshot left the pre-install view reachable")
	}
}
