package simnet

import (
	"fmt"
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
// never more than the catch-up jump's four rounds behind. A pacing timer that
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

	// Open loop: one put to every validator each 5 ms.
	admitted := map[uint64]types.ValidatorID{}
	var id uint64
	var submit func()
	submit = func() {
		if time.Duration(cluster.Sim.Now()) >= loadEnd {
			return
		}
		for v := types.ValidatorID(0); v < n; v++ {
			id++
			tx := types.Transaction{ID: id, Payload: execution.PutOp(
				[]byte(fmt.Sprintf("k%d", id%64)), []byte(fmt.Sprintf("v%d", id)))}
			if cluster.SubmitTx(v, tx) == nil {
				admitted[id] = v
			}
		}
		cluster.Sim.After(5*time.Millisecond, submit)
	}
	cluster.Sim.After(5*time.Millisecond, submit)
	cluster.Start()
	cluster.Sim.RunFor(runFor)

	assertCommittedOnce(t, cluster, admitted, committed)
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

	// The same insertion sequence orders identically inline and pipelined.
	trace := cluster.recordedCerts(0)
	serial, _ := replayEngine(t, committee, hhConfig(10), trace, 0)
	pipelined, _ := replayEngine(t, committee, hhConfig(10), trace, 8)
	assertSameCommitStream(t, "serial-vs-live", live, serial)
	assertSameCommitStream(t, "pipelined-vs-serial", serial, pipelined)
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

// assertRootsAgree checks that the chained state roots agree at the lowest
// commonly applied commit.
func assertRootsAgree(t *testing.T, cluster *Cluster) {
	t.Helper()
	minSeq := cluster.Executor(0).AppliedSeq()
	for v := 1; v < cluster.Size(); v++ {
		minSeq = min(minSeq, cluster.Executor(types.ValidatorID(v)).AppliedSeq())
	}
	ref, ok := cluster.Executor(0).RootAt(minSeq)
	if !ok || minSeq == 0 {
		t.Fatalf("v0 has no root at seq %d", minSeq)
	}
	for v := 1; v < cluster.Size(); v++ {
		if root, ok := cluster.Executor(types.ValidatorID(v)).RootAt(minSeq); !ok || root != ref {
			t.Fatalf("v%d root at seq %d = %s (retained %v), v0 has %s", v, minSeq, root, ok, ref)
		}
	}
}
