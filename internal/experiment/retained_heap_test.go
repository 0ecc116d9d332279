package experiment

import (
	"runtime"
	"testing"
	"time"
)

// TestFaultRunRetainedHeap bounds what a paper-sized fault run keeps live:
// n=50 with 16 validators crashed from genesis, HammerHead, 1000 tx/s for 30
// virtual seconds with execution on, Run's own cluster, still reachable when
// the heap is read. The simulator is deterministic, so the reading repeats to
// 0.1 MB: 15.9 MB with each executor's root ring grown on demand (a few
// hundred entries after this run, not 4096); 24.1 MB at the commit before,
// when every executor was allocated with the full 160 KB ring; 36.7 MB before
// the engine's per-round state moved into slot arrays with one shared vertex
// per certificate. The budget sits 15 % above the first and well below the
// second: it is what stops the next per-validator map or fixed-size table
// from creeping back in.
func TestFaultRunRetainedHeap(t *testing.T) {
	s := NewScenario(HammerHead, 50, 16, 1000)
	s.Duration = 30 * time.Second
	s.Seed = 1
	s.Execution = true
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cluster, err := newCluster(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	submitted := startLoad(cluster, s)
	cluster.Start()
	cluster.Sim.RunFor(s.Duration)
	if seq := cluster.Executor(observer).AppliedSeq(); seq == 0 || *submitted == 0 {
		t.Fatalf("the run committed nothing (applied seq %d, %d submitted)", seq, *submitted)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cluster)
	// Net of what earlier tests of the package left live.
	const budgetMB = 18
	if got := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20); got > budgetMB {
		t.Fatalf("the run retains %.1f MB of heap, budget %d MB", got, budgetMB)
	}
}
