package simnet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
)

// TestShortRoundsSurviveAStalledValidator is the lost-write scenario short
// pacing used to produce: four validators at 30 ms rounds on a 2 ms network,
// one of them stalled (links 20x slower) for 300 ms — long enough that its
// certificates land after the others' next proposals, short enough that it is
// never more than the catch-up jump's five rounds behind. A pacing timer that
// restarts from the validator's own last proposal keeps it exactly that late
// for good: nobody references its vertices again, and every transaction it
// admits from then on is pruned unordered. With the f+1 pacing rule it
// re-aligns within a round trip of the stall ending.
func TestShortRoundsSurviveAStalledValidator(t *testing.T) {
	const (
		n       = 4
		stalled = types.ValidatorID(2)
		from    = 1000 * time.Millisecond
		until   = 1300 * time.Millisecond
		loadEnd = 5 * time.Second
		runFor  = 8 * time.Second
	)
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MinRoundDelay = 30 * time.Millisecond

	committed := make([]map[uint64]int, n) // per validator: tx ID -> times committed
	for i := range committed {
		committed[i] = map[uint64]int{}
	}
	var live []bullshark.CommittedSubDAG // validator 0's commit stream
	cluster, err := NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       cfg,
		Latency:      Uniform{Base: 2 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hhConfig(10),
		ScheduleSeed: 1,
		Seed:         1,
		Execution:    true,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, _ int64) {
			if node == 0 {
				live = append(live, sub)
			}
			for _, v := range sub.Vertices {
				if v.Batch == nil {
					continue
				}
				for _, tx := range v.Batch.Transactions {
					committed[node][tx.ID]++
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.RecordWALs() // validator 0's insertion sequence, replayed below
	cluster.SlowDown(stalled, 20, from, until)

	load := startSteadyLoad(cluster, n, loadEnd)
	cluster.Start()
	cluster.Sim.RunFor(runFor)

	assertCommittedOnce(t, cluster, load.admitted, committed)
	assertRootsAgree(t, cluster)

	// The stalled validator is back to a full share of ordered vertices: of
	// those proposed in the load's last two seconds it holds one in four,
	// where the drifting timer left it none.
	own, all := 0, 0
	for _, sub := range live {
		for _, v := range sub.Vertices {
			if at := time.Duration(v.CreatedNanos); at >= 3*time.Second && at < loadEnd {
				all++
				if v.Source == stalled {
					own++
				}
			}
		}
	}
	if all < 100 || own*5 < all {
		t.Fatalf("the stalled validator produced %d of the %d vertices ordered from seconds 3 to 5, want about a quarter", own, all)
	}

	// The recorded insertion sequence, replayed, orders as validator 0 did.
	replayed, _ := replayEngine(t, committee, hhConfig(10), cluster.recordedCerts(0))
	assertSameCommitStream(t, "replay-vs-live", live, replayed)
}

// steadyLoad is an open loop started by startSteadyLoad: what it admitted
// (tx ID -> admitting validator) and when (tx ID -> virtual submit time).
type steadyLoad struct {
	admitted map[uint64]types.ValidatorID
	at       map[uint64]time.Duration
}

// startSteadyLoad submits one put to each of validators 0..n-1 every 5 ms
// until loadEnd.
func startSteadyLoad(cluster *Cluster, n int, loadEnd time.Duration) *steadyLoad {
	l := &steadyLoad{admitted: map[uint64]types.ValidatorID{}, at: map[uint64]time.Duration{}}
	var id uint64
	var submit func()
	submit = func() {
		now := time.Duration(cluster.Sim.Now())
		if now >= loadEnd {
			return
		}
		for v := types.ValidatorID(0); int(v) < n; v++ {
			id++
			tx := types.Transaction{ID: id, Payload: execution.PutOp(
				[]byte(fmt.Sprintf("k%d", id%64)), []byte(fmt.Sprintf("v%d", id)))}
			if cluster.SubmitTx(v, tx) == nil {
				l.admitted[id] = v
				l.at[id] = now
			}
		}
		cluster.Sim.After(5*time.Millisecond, submit)
	}
	cluster.Sim.After(5*time.Millisecond, submit)
	return l
}

// assertCommittedOnce checks that every admitted transaction (ID -> the
// validator that admitted it) committed exactly once on every validator
// (committed[v]: ID -> times committed), and that no validator pruned one of
// its own certified vertices unordered.
func assertCommittedOnce(t *testing.T, cluster *Cluster, admitted map[uint64]types.ValidatorID, committed []map[uint64]int) {
	t.Helper()
	for v := range committed {
		lost, twice := map[types.ValidatorID]int{}, 0
		for txid, origin := range admitted {
			switch c := committed[v][txid]; {
			case c == 0:
				lost[origin]++
			case c > 1:
				twice++
			}
		}
		if len(lost) > 0 || twice > 0 {
			t.Errorf("v%d: of %d admitted transactions, lost by admitting validator %v, %d committed twice",
				v, len(admitted), lost, twice)
		}
		if st := cluster.Engine(types.ValidatorID(v)).Stats(); st.OwnVerticesPrunedUnordered != 0 {
			t.Errorf("v%d pruned %d own vertices (%d txs) unordered", v, st.OwnVerticesPrunedUnordered, st.OwnTxPrunedUnordered)
		}
	}
}

// assertRootsAgree checks that the chained state roots of the validators not
// crashed agree at their lowest commonly applied commit. Validator 0 must be
// live.
func assertRootsAgree(t *testing.T, cluster *Cluster) {
	t.Helper()
	var live []types.ValidatorID
	for v := types.ValidatorID(0); int(v) < cluster.Size(); v++ {
		if !cluster.crashed(v, cluster.Sim.Now()) {
			live = append(live, v)
		}
	}
	minSeq := cluster.Executor(0).AppliedSeq()
	for _, v := range live {
		minSeq = min(minSeq, cluster.Executor(v).AppliedSeq())
	}
	ref, ok := cluster.Executor(0).RootAt(minSeq)
	if !ok || minSeq == 0 {
		t.Fatalf("v0 has no root at seq %d", minSeq)
	}
	for _, v := range live[1:] {
		if root, ok := cluster.Executor(v).RootAt(minSeq); !ok || root != ref {
			t.Fatalf("v%d root at seq %d = %s (retained %v), v0 has %s", v, minSeq, root, ok, ref)
		}
	}
}

// voteRoundRun is what one run of the steady vote-round scenario committed.
type voteRoundRun struct {
	cluster   *Cluster
	load      *steadyLoad
	committed []map[uint64]int // per live validator: tx ID -> times committed
	// anchorGap is the median interval between the proposals of consecutive
	// anchors validator 0 committed, and commitP50 the median time from
	// submission to commit over every live validator's commits.
	anchorGap, commitP50 time.Duration
}

// runVoteRounds runs four validators on a 2 ms network at a 50 ms floor under
// light steady load (one put to every live validator each 5 ms) for five
// seconds, with the last validator crashed from genesis when crashed is set.
func runVoteRounds(t *testing.T, crashed bool) *voteRoundRun {
	t.Helper()
	const (
		n       = 4
		loadEnd = 5 * time.Second
		runFor  = 6 * time.Second
	)
	live := n
	if crashed {
		live--
	}
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	r := &voteRoundRun{committed: make([]map[uint64]int, live)}
	for i := range r.committed {
		r.committed[i] = map[uint64]int{}
	}
	var anchors []time.Duration
	var latencies []time.Duration
	r.cluster, err = NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       fastSimEngineConfig(),
		Latency:      Uniform{Base: 2 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hhConfig(10),
		ScheduleSeed: 1,
		Seed:         1,
		Execution:    true,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, now int64) {
			if node == 0 {
				anchors = append(anchors, time.Duration(sub.Anchor.CreatedNanos))
			}
			for _, v := range sub.Vertices {
				if v.Batch == nil {
					continue
				}
				for _, tx := range v.Batch.Transactions {
					r.committed[node][tx.ID]++
					latencies = append(latencies, time.Duration(now)-r.load.at[tx.ID])
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crashed {
		r.cluster.CrashAt(n-1, 0)
	}
	r.load = startSteadyLoad(r.cluster, live, loadEnd)
	r.cluster.Start()
	r.cluster.Sim.RunFor(runFor)

	var gaps []time.Duration
	for i := 1; i < len(anchors); i++ {
		gaps = append(gaps, anchors[i]-anchors[i-1])
	}
	if len(gaps) < 20 || len(latencies) == 0 {
		t.Fatalf("%d anchors and %d commits in %v", len(anchors), len(latencies), runFor)
	}
	r.anchorGap, r.commitP50 = median(gaps), median(latencies)
	return r
}

// median returns the middle of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// pacedCommitP50 is the steady vote-round scenario's commit p50 when every
// round, the voting round included, waits out the floor: anchors two floors
// apart.
const pacedCommitP50 = 146 * time.Millisecond

// TestVoteRoundFollowsCertification: in a committee every validator keeps up
// with, a whole anchor round sends its voting header at once and the next
// anchor-round header follows a floor after the previous one, so the floor
// paces a wave — anchor round plus voting round. Anchors are proposed one
// floor apart, not two, and not one floor plus the round trip the vote
// waited for; commit p50 falls by at least a third from pacedCommitP50.
// Every transaction still commits exactly once everywhere, under one chain
// of state roots.
func TestVoteRoundFollowsCertification(t *testing.T) {
	r := runVoteRounds(t, false)
	floor := fastSimEngineConfig().MinRoundDelay
	t.Logf("anchor gap p50 %v, commit p50 %v", r.anchorGap, r.commitP50)
	if r.anchorGap > floor*21/20 {
		t.Errorf("median anchor-to-anchor interval %v, want at most 1.05 × the %v floor", r.anchorGap, floor)
	}
	if r.commitP50 > pacedCommitP50*2/3 {
		t.Errorf("commit p50 %v, want a third off the %v of rounds paced one by one", r.commitP50, pacedCommitP50)
	}
	for v := range r.committed {
		if st := r.cluster.Engine(types.ValidatorID(v)).Stats(); st.HeadersVoteEarly == 0 {
			t.Errorf("v%d sent no voting header early", v)
		}
	}
	assertCommittedOnce(t, r.cluster, r.load.admitted, r.committed)
	assertRootsAgree(t, r.cluster)
}

// TestVoteRoundWaitsForACrashedValidator: with one of four validators crashed
// no round is ever whole, so every round waits out the floor — anchors stay
// at least two floors apart — and no voting header goes out early.
func TestVoteRoundWaitsForACrashedValidator(t *testing.T) {
	r := runVoteRounds(t, true)
	floor := fastSimEngineConfig().MinRoundDelay
	t.Logf("anchor gap p50 %v, commit p50 %v", r.anchorGap, r.commitP50)
	if r.anchorGap < 2*floor {
		t.Errorf("median anchor-to-anchor interval %v, want the two %v floors of paced rounds", r.anchorGap, floor)
	}
	for v := range r.committed {
		if st := r.cluster.Engine(types.ValidatorID(v)).Stats(); st.HeadersVoteEarly != 0 {
			t.Errorf("v%d sent %d voting headers early with a validator crashed", v, st.HeadersVoteEarly)
		}
	}
	assertCommittedOnce(t, r.cluster, r.load.admitted, r.committed)
	assertRootsAgree(t, r.cluster)
}
