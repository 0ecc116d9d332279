package simnet

import (
	"fmt"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
)

// The burst scenario: four validators on a 2 ms network with MaxBatchTx 50,
// otherwise idle, each handed burstBatches full batches at once at burstAt.
const (
	burstAt      = time.Second
	burstBatches = 10
	burstBatchTx = 50
)

// burstRun is what one run of the burst scenario committed.
type burstRun struct {
	cluster   *Cluster
	admitted  map[uint64]types.ValidatorID
	committed []map[uint64]int // per validator: tx ID -> times committed
	// lastAt is, per validator, the virtual time of its last commit holding
	// a burst transaction.
	lastAt []time.Duration
}

// runBurst runs the burst scenario for runFor with the given simulation seed,
// validator stalled (its links 20x slower) from stallFrom to stallUntil; an
// empty stall window stalls nobody.
func runBurst(t *testing.T, seed int64, stalled types.ValidatorID, stallFrom, stallUntil, runFor time.Duration) *burstRun {
	t.Helper()
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSimEngineConfig()
	cfg.MaxBatchTx = burstBatchTx
	r := &burstRun{
		admitted:  map[uint64]types.ValidatorID{},
		committed: make([]map[uint64]int, n),
		lastAt:    make([]time.Duration, n),
	}
	for i := range r.committed {
		r.committed[i] = map[uint64]int{}
	}
	r.cluster, err = NewCluster(ClusterConfig{
		Committee:    committee,
		Engine:       cfg,
		Latency:      Uniform{Base: 2 * time.Millisecond, Jitter: 0.1},
		HammerHead:   hhConfig(10),
		ScheduleSeed: 1,
		Seed:         seed,
		OnCommit: func(node types.ValidatorID, sub bullshark.CommittedSubDAG, now int64) {
			for _, v := range sub.Vertices {
				if v.Batch == nil {
					continue
				}
				for _, tx := range v.Batch.Transactions {
					r.committed[node][tx.ID]++
					r.lastAt[node] = time.Duration(now)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stallUntil > stallFrom {
		r.cluster.SlowDown(stalled, 20, stallFrom, stallUntil)
	}
	r.cluster.Sim.After(burstAt, func() {
		id := uint64(0)
		for v := types.ValidatorID(0); v < n; v++ {
			for range burstBatches * burstBatchTx {
				id++
				tx := types.Transaction{ID: id, Payload: execution.PutOp(
					[]byte(fmt.Sprintf("k%d", id%64)), []byte(fmt.Sprintf("v%d", id)))}
				if r.cluster.SubmitTx(v, tx) != nil {
					t.Fatalf("v%d refused burst transaction %d", v, id)
				}
				r.admitted[id] = v
			}
		}
	})
	r.cluster.Start()
	r.cluster.Sim.RunFor(runFor)
	return r
}

// TestBurstDrainsAtCertificationPace: a backlog of full batches leaves each
// validator at the committee's certification pace, not one batch per
// MinRoundDelay — the last burst transaction commits everywhere well inside
// the burstBatches × MinRoundDelay the paced drain alone would take — and
// every transaction still commits exactly once everywhere, under one chain
// of state roots.
func TestBurstDrainsAtCertificationPace(t *testing.T) {
	r := runBurst(t, 1, 0, 0, 0, 3*time.Second)
	assertCommittedOnce(t, r.cluster, r.admitted, r.committed)
	assertRootsAgree(t, r.cluster)
	paced := burstBatches * fastSimEngineConfig().MinRoundDelay
	for v, at := range r.lastAt {
		if drain := at - burstAt; drain > paced/2 {
			t.Errorf("v%d committed the last burst transaction %v after the burst; the paced drain alone takes %v", v, drain, paced)
		}
		if st := r.cluster.Engine(types.ValidatorID(v)).Stats(); st.HeadersFullEarly == 0 {
			t.Errorf("v%d proposed no header early on a full batch", v)
		}
	}
}

// TestBurstSurvivesAStalledValidator: one validator's links turn 20x slower
// for 100 to 500 ms around the burst, over eight seeds and five start times.
// Had the other three drained the burst, or sent their votes, at
// certification pace without it, it would fall more than five rounds behind,
// and the catch-up jump would cut off its last vertices and their writes;
// waiting for the whole round holds them to the floor instead. A full batch
// can still send the three on at the instant the links slow, so the stall may
// start a round behind (seed 4 from 1.01 s does): a 500 ms stall then ends
// five rounds behind, which the jump allows. Nothing is
// lost or committed twice, and no validator prunes an own vertex unordered.
// Longer stalls at this factor (an 80 ms round trip against 50 ms rounds)
// lose writes with or without the whole-round rules: that is a validator
// slower than the round time, and which runs lose follows the leader
// schedule around the stall.
func TestBurstSurvivesAStalledValidator(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		stalled := types.ValidatorID(seed % 4)
		for _, off := range []time.Duration{-300, -100, -20, 10, 100} {
			from := burstAt + off*time.Millisecond
			for _, stall := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond} {
				t.Run(fmt.Sprintf("seed%d/v%d/from%v/for%v", seed, stalled, from, stall), func(t *testing.T) {
					r := runBurst(t, seed, stalled, from, from+stall, from+stall+2*time.Second)
					assertCommittedOnce(t, r.cluster, r.admitted, r.committed)
					assertRootsAgree(t, r.cluster)
				})
			}
		}
	}
}
