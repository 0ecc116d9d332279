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
	recorded := cluster.recordInsertions(0) // replayed below
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
	replayed, _ := replayEngine(t, committee, hhConfig(10), *recorded)
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
	// anchors validator 0 committed, batchGap the median interval between
	// validator 0's own consecutive batch-round (≡ 1 mod 4) headers, and
	// commitP50 the median time from submission to commit over every live
	// validator's commits, commitP95 its 95th percentile.
	anchorGap, batchGap, commitP50, commitP95 time.Duration
}

// runVoteRounds runs four validators on a 2 ms network at a 50 ms floor under
// light steady load (one put to every live validator each 5 ms) for five
// seconds, with the last validator crashed from genesis when crashed is set.
// Validator i starts at starts[i] when starts are given, all at time 0
// otherwise.
func runVoteRounds(t *testing.T, crashed bool, starts ...time.Duration) *voteRoundRun {
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
	batches := map[types.Round]time.Duration{} // v0's batch-round headers, by round
	r.cluster, err = NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       fastSimEngineConfig(),
		Latency:      Uniform{Base: 2 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hhConfig(10),
		ScheduleSeed: 1,
		Seed:         1,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, now int64) {
			if node == 0 {
				anchors = append(anchors, time.Duration(sub.Anchor.CreatedNanos))
			}
			for _, v := range sub.Vertices {
				if node == 0 && v.Source == 0 && v.Round%4 == 1 {
					batches[v.Round] = time.Duration(v.CreatedNanos)
				}
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
	if starts == nil {
		r.cluster.Start()
	}
	for i, at := range starts {
		v := types.ValidatorID(i)
		r.cluster.Sim.After(at, func() {
			out, err := r.cluster.validators[v].Init(r.cluster.Sim.Now())
			if err != nil {
				t.Error(err)
				return
			}
			r.cluster.dispatch(v, out)
		})
	}
	r.cluster.Sim.RunFor(runFor)

	var gaps []time.Duration
	for i := 1; i < len(anchors); i++ {
		gaps = append(gaps, anchors[i]-anchors[i-1])
	}
	if len(gaps) < 20 || len(latencies) == 0 {
		t.Fatalf("%d anchors and %d commits in %v", len(anchors), len(latencies), runFor)
	}
	var batchGaps []time.Duration
	for round, at := range batches {
		if next, ok := batches[round+4]; ok {
			batchGaps = append(batchGaps, next-at)
		}
	}
	if len(batchGaps) < 10 {
		t.Fatalf("%d intervals between v0's committed batch-round headers in %v", len(batchGaps), runFor)
	}
	r.anchorGap, r.batchGap, r.commitP50 = median(gaps), median(batchGaps), median(latencies)
	r.commitP95 = latencies[len(latencies)*95/100] // sorted by median
	return r
}

// median returns the middle of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// The steady vote-round scenario's commit latency bounds under one batch
// round per floor F, with δ the round trip (about 6 ms here): a transaction
// waits F/2 for the next batch round at the median, F at worst, and commits
// 3δ after it — p50 ≈ F/2 + 3δ, p95 ≈ F + 3δ. Measured: p50 42.0 ms and p95
// 56.0 ms (56.4 ms after staggered starts). The period of two floors it
// replaced measured 67.6 ms and 104.3 ms; the floor-paced waves before that,
// p50 71.9 ms.
func onePeriodBounds(floor time.Duration) (p50, p95 time.Duration) {
	return floor * 9 / 10, floor * 6 / 5
}

// TestVoteRoundFollowsCertification: in a committee every validator keeps up
// with, rounds go in periods of four — the batch round, its anchor, the vote
// that commits the anchor, each sent at once when the round before is whole,
// and a round ≡ 0 (mod 4) that waits out the rest of one floor from the
// batch-round headers. A validator's batch-round headers are one floor apart
// (and a message delay), and every batch-round vertex is ordered
// with the very next anchor, three round trips after it is proposed: commit
// p50 and p95 stay within onePeriodBounds. Every transaction still commits
// exactly once everywhere, under one chain of state roots.
func TestVoteRoundFollowsCertification(t *testing.T) {
	r := runVoteRounds(t, false)
	floor := fastSimEngineConfig().MinRoundDelay
	t.Logf("batch gap p50 %v, anchor gap p50 %v, commit p50 %v, p95 %v", r.batchGap, r.anchorGap, r.commitP50, r.commitP95)
	if lo, hi := floor*19/20, floor*21/20; r.batchGap < lo || r.batchGap > hi {
		t.Errorf("median batch-header interval %v, want within 5%% of one %v floor", r.batchGap, floor)
	}
	if p50, p95 := onePeriodBounds(floor); r.commitP50 > p50 || r.commitP95 > p95 {
		t.Errorf("commit p50 %v, p95 %v; want at most %v and %v", r.commitP50, r.commitP95, p50, p95)
	}
	for v := range r.committed {
		if st := r.cluster.Engine(types.ValidatorID(v)).Stats(); st.HeadersWholeEarly == 0 {
			t.Errorf("v%d sent no header early from a whole round", v)
		}
	}
	assertCommittedOnce(t, r.cluster, r.load.admitted, r.committed)
	assertRootsAgree(t, r.cluster)
}

// TestPeriodsAgreeAfterStaggeredStarts: validators that boot 60 to 80 ms
// apart — as processes started one after another do — still pace one
// period. Counted from each validator's own batch-round header, the first
// validator's periods would run ahead of the committee's for good: it would
// leave every round ≡ 0 alone and its batches would wait for the others'
// (under the period of two floors, commit p50 settled near 84 ms, p95 near
// 144 ms). Counted from the (f+1)-th batch-round header, the periods agree
// from the first one on, and latency stays within onePeriodBounds.
func TestPeriodsAgreeAfterStaggeredStarts(t *testing.T) {
	r := runVoteRounds(t, false, 0, 60*time.Millisecond, 70*time.Millisecond, 80*time.Millisecond)
	floor := fastSimEngineConfig().MinRoundDelay
	t.Logf("batch gap p50 %v, commit p50 %v, p95 %v", r.batchGap, r.commitP50, r.commitP95)
	if lo, hi := floor*19/20, floor*21/20; r.batchGap < lo || r.batchGap > hi {
		t.Errorf("median batch-header interval %v, want within 5%% of one %v floor", r.batchGap, floor)
	}
	if p50, p95 := onePeriodBounds(floor); r.commitP50 > p50 || r.commitP95 > p95 {
		t.Errorf("commit p50 %v, p95 %v; want at most %v and %v", r.commitP50, r.commitP95, p50, p95)
	}
	assertCommittedOnce(t, r.cluster, r.load.admitted, r.committed)
	assertRootsAgree(t, r.cluster)
}

// TestVoteRoundWaitsForACrashedValidator: with one of four validators crashed
// no round is ever whole, so every round waits out the floor — anchors stay
// at least two floors apart — and no header goes out early.
func TestVoteRoundWaitsForACrashedValidator(t *testing.T) {
	r := runVoteRounds(t, true)
	floor := fastSimEngineConfig().MinRoundDelay
	t.Logf("anchor gap p50 %v, commit p50 %v", r.anchorGap, r.commitP50)
	if r.anchorGap < 2*floor {
		t.Errorf("median anchor-to-anchor interval %v, want the two %v floors of paced rounds", r.anchorGap, floor)
	}
	for v := range r.committed {
		if st := r.cluster.Engine(types.ValidatorID(v)).Stats(); st.HeadersWholeEarly != 0 {
			t.Errorf("v%d sent %d headers early from a whole round with a validator crashed", v, st.HeadersWholeEarly)
		}
	}
	assertCommittedOnce(t, r.cluster, r.load.admitted, r.committed)
	assertRootsAgree(t, r.cluster)
}
