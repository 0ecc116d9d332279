package mempool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/internal/types"
)

func tx(id uint64) types.Transaction { return types.Transaction{ID: id} }

// TestFairSingleLaneMatchesPool pins the degenerate configuration the
// simulator runs: one lane must behave exactly like the shardedPool under
// it — same capacity semantics, same FIFO drain for a single submitter.
func TestFairSingleLaneMatchesPool(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 4, Lanes: 1, Shards: 1})
	for i := uint64(1); i <= 4; i++ {
		if err := p.Submit(tx(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := p.Submit(tx(5)); err != ErrFull {
		t.Fatalf("submit over capacity: err = %v, want ErrFull", err)
	}
	b := p.NextBatch(0, 10)
	if b == nil || len(b.Transactions) != 4 {
		t.Fatalf("drained %v, want 4 transactions", b)
	}
	for i, got := range b.Transactions {
		if got.ID != uint64(i+1) {
			t.Fatalf("tx %d has ID %d: FIFO violated", i, got.ID)
		}
	}
	if p.NextBatch(0, 1) != nil {
		t.Fatal("empty pool must drain nil")
	}
}

// TestFairLaneCapsIsolateClients is the admission half of fairness: a client
// saturating its lane gets ErrFull while a light client on another lane keeps
// being admitted — the hot client cannot consume the light lane's headroom.
func TestFairLaneCapsIsolateClients(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 100, Lanes: 2, Shards: 1})
	// Find two client IDs mapping to distinct lanes.
	hot, light := "hot-client", ""
	for _, c := range []string{"a", "b", "c", "d", "e"} {
		if p.LaneFor(c) != p.LaneFor(hot) {
			light = c
			break
		}
	}
	if light == "" {
		t.Fatal("found no client hashing to the other lane")
	}

	// Saturate the hot lane far past its cap.
	var hotRejected int
	for i := uint64(0); i < 200; i++ {
		if err := p.SubmitClient(hot, tx(i)); err == ErrFull {
			hotRejected++
		}
	}
	if hotRejected == 0 {
		t.Fatal("hot client never hit its lane cap")
	}
	// The light client's admissions must be untouched by the flood.
	for i := uint64(0); i < 10; i++ {
		if err := p.SubmitClient(light, tx(1000+i)); err != nil {
			t.Fatalf("light client rejected while hot lane saturated: %v", err)
		}
	}
}

// TestFairWeightedDrainShare is the drain half of fairness: with both lanes
// backlogged, each lane's share of the drained stream matches its weight —
// the saturating lane cannot push the light lane's share below it.
func TestFairWeightedDrainShare(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 10000, Lanes: 2, Shards: 1, Weights: []int{3, 1}})
	for i := uint64(0); i < 1000; i++ {
		if err := p.SubmitLane(0, tx(i)); err != nil {
			t.Fatalf("lane 0 submit: %v", err)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if err := p.SubmitLane(1, tx(10000+i)); err != nil {
			t.Fatalf("lane 1 submit: %v", err)
		}
	}
	b := p.NextBatch(0, 400)
	if b == nil || len(b.Transactions) != 400 {
		t.Fatalf("drained %d, want 400", len(b.Transactions))
	}
	var lane1 int
	for _, got := range b.Transactions {
		if got.ID >= 10000 {
			lane1++
		}
	}
	// Weight 1 of 4 → exactly 100 of 400 under smooth WRR with both lanes
	// permanently backlogged.
	if lane1 != 100 {
		t.Fatalf("light lane drained %d of 400, want its weight share 100", lane1)
	}
}

// TestFairDrainPreservesLaneFIFO: interleaving across lanes must not reorder
// within a lane.
func TestFairDrainPreservesLaneFIFO(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 1000, Lanes: 4, Shards: 1})
	for i := uint64(0); i < 50; i++ {
		for l := 0; l < 4; l++ {
			if err := p.SubmitLane(l, tx(uint64(l)*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := p.NextBatch(0, 200)
	if b == nil || len(b.Transactions) != 200 {
		t.Fatalf("drained %d, want 200", len(b.Transactions))
	}
	next := map[uint64]uint64{}
	for _, got := range b.Transactions {
		laneKey := got.ID / 1000
		if got.ID%1000 != next[laneKey] {
			t.Fatalf("lane %d drained %d, want %d: per-lane FIFO violated", laneKey, got.ID%1000, next[laneKey])
		}
		next[laneKey]++
	}
}

// TestFairConcurrentSubmitDrain races many submitters against a drainer;
// run with -race. Every admitted transaction must be drained exactly once.
func TestFairConcurrentSubmitDrain(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 1 << 16, Lanes: 4, Shards: 2})
	const clients, perClient = 8, 2000
	var wg sync.WaitGroup
	var admitted sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := string(rune('a' + c))
			for i := 0; i < perClient; i++ {
				txID := uint64(c*perClient + i + 1)
				if err := p.SubmitClient(id, tx(txID)); err == nil {
					admitted.Store(txID, true)
				}
			}
		}(c)
	}
	done := make(chan struct{})
	var submittersDone atomic.Bool
	drained := map[uint64]int{}
	go func() {
		defer close(done)
		for {
			b := p.NextBatch(0, 64)
			if b == nil {
				if p.Pending() == 0 && submittersDone.Load() {
					return
				}
				time.Sleep(time.Millisecond)
				continue
			}
			for _, got := range b.Transactions {
				drained[got.ID]++
			}
		}
	}()
	wg.Wait()
	submittersDone.Store(true)
	<-done

	var admittedCount int
	admitted.Range(func(k, _ any) bool {
		admittedCount++
		if drained[k.(uint64)] != 1 {
			t.Fatalf("tx %d drained %d times, want 1", k, drained[k.(uint64)])
		}
		return true
	})
	stats := p.Stats()
	if stats.Drained != uint64(admittedCount) {
		t.Fatalf("Drained = %d, admitted = %d", stats.Drained, admittedCount)
	}
}
