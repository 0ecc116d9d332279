package experiment

import (
	"runtime"
	"testing"
	"time"
)

// TestFaultRunRetainedHeap bounds what a paper-sized fault run keeps live:
// n=50 with 16 validators crashed from genesis, HammerHead, 1000 tx/s for 30
// virtual seconds with execution on, Run's own cluster, still reachable when
// the heap is read, once halfway through and once at the end. The simulator is
// deterministic, so the readings repeat to 0.1 MB: 6.2 MB at t = 15 s and
// 12.7 MB at t = 30 s with the DAG's vertices addressed by slot alone; 7.9 and
// 15.9 MB while every DAG also kept a digest→vertex map; 24.1 MB at the end
// when every executor was allocated with a full 160 KB root ring; 36.7 MB
// before the engine's per-round state moved into slot arrays with one shared
// vertex per certificate. Each budget sits about 1 MB above the first reading
// and below the second: they are what stop the next per-validator map or
// fixed-size table from creeping back in, at the end and on the way there.
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
	// Net of what earlier tests of the package left live.
	retainedMB := func() float64 {
		var now runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&now)
		return (float64(now.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	}
	cluster.Sim.RunFor(s.Duration / 2)
	mid := retainedMB()
	cluster.Sim.RunFor(s.Duration - s.Duration/2)
	if seq := cluster.Executor(observer).AppliedSeq(); seq == 0 || *submitted == 0 {
		t.Fatalf("the run committed nothing (applied seq %d, %d submitted)", seq, *submitted)
	}
	end := retainedMB()
	runtime.KeepAlive(cluster)
	const midBudgetMB, endBudgetMB = 7.2, 14
	if mid > midBudgetMB || end > endBudgetMB {
		t.Fatalf("the run retains %.1f MB of heap at t=%v (budget %.1f MB) and %.1f MB at t=%v (budget %d MB)",
			mid, s.Duration/2, midBudgetMB, end, s.Duration, endBudgetMB)
	}
}
