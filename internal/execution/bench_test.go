package execution

import (
	"fmt"
	"testing"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/dag"
	"hammerhead/internal/types"
)

// benchCommits builds a stream of commits, each carrying `vertices` vertices
// of `txPerVertex` KV put ops (realistic mixed keyspace: 1k hot keys).
func benchCommits(n int, vertices, txPerVertex int) []bullshark.CommittedSubDAG {
	commits := make([]bullshark.CommittedSubDAG, 0, n)
	id := uint64(0)
	for seq := 1; seq <= n; seq++ {
		var vs []*dag.Vertex
		for v := 0; v < vertices; v++ {
			batch := &types.Batch{}
			for x := 0; x < txPerVertex; x++ {
				id++
				key := []byte(fmt.Sprintf("key-%04d", id%1000))
				val := []byte(fmt.Sprintf("value-%d", id))
				batch.Transactions = append(batch.Transactions, types.Transaction{
					ID:      id,
					Payload: PutOp(key, val),
				})
			}
			vs = append(vs, dag.NewVertex(types.Round(seq*2-1), types.ValidatorID(v), nil, batch, 0))
		}
		anchor := dag.NewVertex(types.Round(seq*2), 0, nil, nil, 0)
		vs = append(vs, anchor)
		commits = append(commits, bullshark.CommittedSubDAG{
			Index:    uint64(seq),
			Anchor:   anchor,
			Vertices: vs,
		})
	}
	return commits
}

// BenchmarkExecutorApply measures batch-apply throughput through the full
// executor path: KV op parsing, ledger writes, per-commit root chaining and
// the ordered-window bookkeeping. Checkpointing is disabled (measured
// separately below); reported as transactions per second.
func BenchmarkExecutorApply(b *testing.B) {
	const vertices, txPerVertex = 4, 64
	commits := benchCommits(b.N, vertices, txPerVertex)
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.ApplyCommit(commits[i])
	}
	b.StopTimer()
	txs := float64(b.N * vertices * txPerVertex)
	b.ReportMetric(txs/b.Elapsed().Seconds(), "tx/s")
	if x.AppliedSeq() != uint64(b.N) {
		b.Fatalf("applied %d commits, want %d", x.AppliedSeq(), b.N)
	}
}

// BenchmarkStateRootHash isolates the state-root hashing cost (sorted full
// scan over the ledger), the per-checkpoint price.
func BenchmarkStateRootHash(b *testing.B) {
	s := NewKVState()
	for i := 0; i < 10_000; i++ {
		s.Apply(&types.Transaction{Payload: PutOp(
			[]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("value-%d", i)))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Root() == (types.Digest{}) {
			b.Fatal("zero root")
		}
	}
}

// BenchmarkKVSnapshot isolates what a checkpoint pays to serialize the ledger:
// walk, key sort and encode of 10k pairs, on the checkpoint goroutine since
// checkpoints were cut from frozen views (BenchmarkCheckpointCut).
func BenchmarkKVSnapshot(b *testing.B) {
	s := NewKVState()
	for i := 0; i < 10_000; i++ {
		s.Apply(&types.Transaction{Payload: PutOp(
			[]byte(fmt.Sprintf("acct-%d", 100000+i*7919%10000)), []byte(fmt.Sprintf("value-%d", i)))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snapshotKV(s)
	}
}

// BenchmarkSnapshotRoundTrip measures the checkpoint→install cycle: cut a
// snapshot of a 10k-key ledger, encode it for the wire, decode and install
// it into a fresh executor with full state-digest verification — the cost a
// recovering validator pays per state-sync, and the serving validator per
// checkpoint.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	src := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62})
	for _, c := range benchCommits(40, 4, 64) { // ~10k txs
		src.ApplyCommit(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := src.ForceCheckpoint()
		if err != nil {
			b.Fatal(err)
		}
		blob, err := EncodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		decoded, err := DecodeSnapshot(blob)
		if err != nil {
			b.Fatal(err)
		}
		fresh := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62})
		if err := fresh.install(decoded, acceptState); err != nil {
			b.Fatal(err)
		}
		if fresh.StateDigest() != src.StateDigest() {
			b.Fatal("round trip diverged")
		}
		if i == 0 {
			b.ReportMetric(float64(len(blob)), "snapshot-bytes")
		}
	}
}

// BenchmarkCheckpointCut measures a checkpoint's two halves with a few
// hundred writes since the previous checkpoint, at 10k and 100k keys. cut and
// inline time how long it holds the executor's lock — what every apply and
// read waits behind: the cut (flush, freeze, copy the window) against the
// inline path it replaced (serialise, sort, encode and save under the lock);
// the cut is written off the clock, as the checkpoint goroutine would.
// write/merge and write/full time the writer, with the cut off the clock:
// merging the writes into the previous checkpoint's bytes, against encoding
// the whole ledger (the chain broken before every write).
func BenchmarkCheckpointCut(b *testing.B) {
	const dirty = 300
	for _, keys := range []int{10_000, 100_000} {
		for _, path := range []string{"cut", "inline", "write/merge", "write/full"} {
			b.Run(fmt.Sprintf("keys=%d/%s", keys, path), func(b *testing.B) {
				o := newInlineOracle(1<<62, false)
				x := o.x
				seq := uint64(0)
				commit := func(n, stride int) {
					seq++
					puts := make([][]byte, n)
					for i := range puts {
						k := fmt.Sprintf("acct-%07d", (int(seq)*7919+i*stride)%keys)
						puts[i] = PutOp([]byte(k), []byte(fmt.Sprintf("value-%d", seq)))
					}
					x.ApplyCommit(makeCommit(seq, types.Round(2*seq), puts))
				}
				// checkpoint runs one checkpoint with only the measured half on
				// the clock.
				checkpoint := func() {
					if path == "inline" {
						if _, err := o.checkpoint(); err != nil {
							b.Fatal(err)
						}
						return
					}
					x.mu.Lock()
					c, err := x.cutLocked()
					if path == "write/full" && x.latest != nil {
						x.latest.kvGen = 0
					}
					x.mu.Unlock()
					if err != nil {
						b.Fatal(err)
					}
					if path == "cut" {
						b.StopTimer()
					} else {
						b.StartTimer()
					}
					x.writeMu.Lock()
					_, err = x.write(c)
					x.writeMu.Unlock()
					if err != nil {
						b.Fatal(err)
					}
					if path == "cut" {
						b.StartTimer()
					} else {
						b.StopTimer()
					}
				}
				for loaded := 0; loaded < keys; loaded += 1000 {
					commit(1000, 1)
				}
				checkpoint() // the preload's, which flushes every key
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					commit(dirty, 104729)
					if path == "cut" || path == "inline" {
						b.StartTimer()
					}
					checkpoint()
				}
			})
		}
	}
}
