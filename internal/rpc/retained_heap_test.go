package rpc

import (
	"fmt"
	"runtime"
	"testing"

	"hammerhead/internal/execution"
	"hammerhead/internal/types"
)

// TestServingRetainedHeapFollowsState: what a validator's gateway and
// executor keep live is a function of the state's size and the offered load,
// not of how many commits have gone by. One in-process pair is fed 600-tx
// commits over a 10 000-key space — the shape of the 6000 tx/s benchmark
// workload — and the live heap after N of them and after 5 N differs by less
// than 2 MB (8.9 MB at both when written). With the resume ring bounded by a
// count alone every commit stayed, payloads and all, until 4096 had gone by:
// 20.7 → 67.8 MB here, the executor's two per-checkpoint frozen views — each
// a former generation of the trie — included.
func TestServingRetainedHeapFollowsState(t *testing.T) {
	const (
		n           = 200 // 200 × ~42 KB fills the ring's byte budget twice over
		txPerCommit = 600
		keySpace    = 10000
	)
	g, _, exec, _ := newTestGateway(t, nil)
	value := make([]byte, 48)
	next := uint64(0)
	feed := func(commits int) {
		for i := 0; i < commits; i++ {
			next++
			payloads := make([][]byte, txPerCommit)
			for j := range payloads {
				key := fmt.Sprintf("acct-%d", 100000+(next*txPerCommit+uint64(j))*7919%keySpace)
				payloads[j] = execution.PutOp([]byte(key), value)
			}
			applyCommit(g, exec, next, types.Round(2*next), payloads...)
		}
	}
	liveMB := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	feed(n)
	atN := liveMB()
	feed(4 * n)
	at5N := liveMB()
	runtime.KeepAlive(g)
	runtime.KeepAlive(exec)
	if exec.AppliedSeq() != 5*n || exec.Checkpoints() == 0 {
		t.Fatalf("applied %d commits with %d checkpoints, want %d and some", exec.AppliedSeq(), exec.Checkpoints(), 5*n)
	}
	const budgetMB = 2
	t.Logf("live heap %.2f MB at %d commits, %.2f MB at %d", atN, n, at5N, 5*n)
	if grew := at5N - atN; grew > budgetMB {
		t.Fatalf("live heap grew %.1f MB between commit %d and commit %d (%.1f → %.1f MB), budget %d MB: something retains history",
			grew, n, 5*n, atN, at5N, budgetMB)
	}
}
