package hammerhead_test

import (
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead"
	"hammerhead/internal/execution"
	"hammerhead/internal/storage"
)

func TestGenerateKeysPublicAPI(t *testing.T) {
	var seed [32]byte
	pairs, pubs, err := hammerhead.GenerateKeys("ed25519", seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 || len(pubs) != 4 {
		t.Fatalf("got %d pairs, %d pubs", len(pairs), len(pubs))
	}
	sig, err := pairs[2].Sign([]byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if !pairs[2].Scheme.Verify(pubs[2], []byte("msg"), sig) {
		t.Fatal("signature round trip failed")
	}
	if _, _, err := hammerhead.GenerateKeys("unknown", seed, 1); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestLocalClusterEndToEnd(t *testing.T) {
	var mu sync.Mutex
	committed := 0
	done := make(chan struct{})
	var once sync.Once

	cluster, err := hammerhead.StartLocalCluster(4,
		hammerhead.WithHammerHead(nil),
		hammerhead.WithWALDir(t.TempDir()),
		hammerhead.WithCommitObserver(func(id hammerhead.ValidatorID, sub hammerhead.CommittedSubDAG, replayed bool) {
			if id != 0 || replayed {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			committed += sub.TxCount()
			if committed >= 20 {
				once.Do(func() { close(done) })
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	if cluster.Committee.Size() != 4 {
		t.Fatalf("committee size = %d", cluster.Committee.Size())
	}
	for i := 0; i < 20; i++ {
		if err := cluster.Submit(hammerhead.ValidatorID(i%4), hammerhead.Transaction{ID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for finality")
	}
	if err := cluster.Submit(99, hammerhead.Transaction{ID: 1}); err == nil {
		t.Fatal("submit to unknown validator must fail")
	}
}

// TestLocalClusterRestartResumesFromItsRecords stops a whole committee run
// with WALs and starts it again over the same directory. Every validator
// resumes at or above the seq it stopped at, from the checkpoints beside its
// compacted log; commits resume, and the chained roots agree at a
// common seq.
func TestLocalClusterRestartResumesFromItsRecords(t *testing.T) {
	dir := t.TempDir()
	start := func() *hammerhead.LocalCluster {
		t.Helper()
		cluster, err := hammerhead.StartLocalCluster(4, hammerhead.WithWALDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return cluster
	}
	// waitApplied waits until every executor applied at least seq.
	waitApplied := func(cluster *hammerhead.LocalCluster, seq uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < len(cluster.Nodes); {
			if cluster.Nodes[i].Executor().AppliedSeq() >= seq {
				i++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("v%d applied up to seq %d, want %d", i, cluster.Nodes[i].Executor().AppliedSeq(), seq)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Past two checkpoints at the default interval, each compacting the logs.
	first := start()
	waitApplied(first, 2*execution.DefaultCheckpointInterval+2)
	first.Stop()
	preSeq := make([]uint64, len(first.Nodes))
	for i, nd := range first.Nodes {
		preSeq[i] = nd.Executor().AppliedSeq()
	}

	second := start()
	defer second.Stop()
	for i, nd := range second.Nodes {
		if got := nd.Executor().AppliedSeq(); got < preSeq[i] {
			t.Fatalf("v%d resumed at seq %d, want >= %d, where it stopped", i, got, preSeq[i])
		}
	}
	waitApplied(second, slices.Max(preSeq)+10)
	second.Stop()

	minSeq := second.Nodes[0].Executor().AppliedSeq()
	for _, nd := range second.Nodes[1:] {
		minSeq = min(minSeq, nd.Executor().AppliedSeq())
	}
	ref, ok := second.Nodes[0].Executor().RootAt(minSeq)
	if !ok {
		t.Fatalf("v0 lost its root at seq %d", minSeq)
	}
	for i, nd := range second.Nodes[1:] {
		if root, ok := nd.Executor().RootAt(minSeq); !ok || root != ref {
			t.Fatalf("v%d root at seq %d = %s (ok=%v), v0's is %s", i+1, minSeq, root, ok, ref)
		}
	}
}

func TestRunExperimentPublicAPI(t *testing.T) {
	s := hammerhead.NewScenario(hammerhead.HammerHead, 4, 1, 50)
	s.Duration = 20 * time.Second
	s.Warmup = 8 * time.Second
	res, err := hammerhead.RunExperiment(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 || res.Commits == 0 {
		t.Fatalf("no progress: %+v", res)
	}
	if res.Latency.Mean <= 0 {
		t.Fatal("no latency samples")
	}
	// Validation surfaces through the public entry point.
	bad := s
	bad.Faults = 3 // > f for n=4
	if _, err := hammerhead.RunExperiment(bad); err == nil {
		t.Fatal("invalid scenario must be rejected")
	}
}

func TestDefaultConfigsExported(t *testing.T) {
	sc := hammerhead.DefaultSchedulerConfig()
	if sc.EpochCommits != 10 || sc.Scoring != hammerhead.ScoringVotes {
		t.Fatalf("scheduler defaults = %+v, want the paper's evaluation settings", sc)
	}
	ec := hammerhead.DefaultEngineConfig()
	if err := ec.Validate(); err != nil {
		t.Fatal(err)
	}
	committee, err := hammerhead.NewEqualStakeCommittee(100)
	if err != nil {
		t.Fatal(err)
	}
	if committee.MaxFaultyStake() != 33 {
		t.Fatalf("f = %d for n=100, want 33", committee.MaxFaultyStake())
	}
}

// TestLocalClusterCompactsItsLogs runs a committee started with nothing but a
// WAL directory past two checkpoint intervals. Every validator executes, so
// validator 0 has saved a checkpoint beside its log and compacted the log to
// that checkpoint's floor: the log no longer holds the first rounds, and a
// restart would not replay from round 1.
func TestLocalClusterCompactsItsLogs(t *testing.T) {
	dir := t.TempDir()
	var commits atomic.Uint64
	cluster, err := hammerhead.StartLocalCluster(4, hammerhead.WithWALDir(dir),
		hammerhead.WithCommitObserver(func(id hammerhead.ValidatorID, _ hammerhead.CommittedSubDAG, replayed bool) {
			if id == 0 && !replayed {
				commits.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(2*execution.DefaultCheckpointInterval + 2)
	deadline := time.Now().Add(30 * time.Second)
	for commits.Load() < want {
		if time.Now().After(deadline) {
			cluster.Stop()
			t.Fatalf("v0 made %d commits, want %d", commits.Load(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cluster.Stop()

	wal := filepath.Join(dir, "validator-0.wal")
	info, err := storage.Inspect(wal)
	if err != nil {
		t.Fatal(err)
	}
	if info.Certs == 0 || info.LowestRound <= 1 {
		t.Fatalf("after %d commits v0's log holds %d certificates from round %d: never compacted",
			commits.Load(), info.Certs, info.LowestRound)
	}
	store, err := storage.NewSnapshotStore(wal + ".snapshots")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Latest(); !ok {
		t.Fatal("v0's snapshot store holds no checkpoint")
	}
}
