package mempool

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/internal/types"
)

func tx(id uint64) types.Transaction { return types.Transaction{ID: id} }

// laneClients returns one client ID per lane of p, indexed by lane.
func laneClients(t *testing.T, p *FairPool) []string {
	t.Helper()
	clients := make([]string, len(p.lanes))
	found := 0
	for i := 0; found < len(clients) && i < 10000; i++ {
		c := fmt.Sprintf("client-%d", i)
		if l := p.LaneFor(c); clients[l] == "" {
			clients[l] = c
			found++
		}
	}
	if found < len(clients) {
		t.Fatalf("found clients for %d of %d lanes", found, len(clients))
	}
	return clients
}

// TestFairSingleLaneMatchesPool pins the degenerate configuration the
// simulator runs: one lane is one FIFO of capacity MaxSize — exact
// capacity, submission-order drain for a single submitter.
func TestFairSingleLaneMatchesPool(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 4, Lanes: 1})
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
	p := NewFair(FairConfig{MaxSize: 100, Lanes: 2})
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

// TestFairEqualDrainShare is the drain half of fairness: with every lane
// backlogged, a drain of 4k takes exactly k from each of the 4 lanes, one
// per lane per turn, each lane's share in its own FIFO order — a saturating
// lane cannot push another's share below it.
func TestFairEqualDrainShare(t *testing.T) {
	const lanes, k = 4, 100
	p := NewFair(FairConfig{MaxSize: 10000, Lanes: lanes})
	clients := laneClients(t, p)
	for i := uint64(0); i < 1000; i++ {
		for l, c := range clients {
			if err := p.SubmitClient(c, tx(uint64(l)*10000+i)); err != nil {
				t.Fatalf("lane %d submit: %v", l, err)
			}
		}
	}
	for drain := 0; drain < 3; drain++ {
		b := p.NextBatch(0, lanes*k)
		if b == nil || len(b.Transactions) != lanes*k {
			t.Fatalf("drain %d: got %v, want %d transactions", drain, b, lanes*k)
		}
		var got [lanes]uint64
		for i, x := range b.Transactions {
			l := x.ID / 10000
			turn := b.Transactions[i-i%lanes : i] // this turn's earlier picks
			if slices.ContainsFunc(turn, func(y types.Transaction) bool { return y.ID/10000 == l }) {
				t.Fatalf("drain %d: lane %d yielded twice in one turn of %d", drain, l, lanes)
			}
			if want := uint64(drain*k) + got[l]; x.ID%10000 != want {
				t.Fatalf("drain %d: lane %d yielded %d, want %d: per-lane FIFO violated", drain, l, x.ID%10000, want)
			}
			got[l]++
		}
		for l, n := range got {
			if n != k {
				t.Fatalf("drain %d: lane %d gave %d of %d, want exactly %d", drain, l, n, lanes*k, k)
			}
		}
	}
}

// TestFairDrainTurnCarriesAcrossBatches: the turn order continues from one
// drain to the next, so batches smaller than the lane count still rotate
// through every backlogged lane instead of favouring the first.
func TestFairDrainTurnCarriesAcrossBatches(t *testing.T) {
	const lanes = 3
	p := NewFair(FairConfig{MaxSize: 300, Lanes: lanes})
	clients := laneClients(t, p)
	for i := uint64(0); i < 10; i++ {
		for l, c := range clients {
			if err := p.SubmitClient(c, tx(uint64(l)*100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var order []uint64
	for i := 0; i < 2*lanes; i++ {
		b := p.NextBatch(0, 1)
		if b == nil || len(b.Transactions) != 1 {
			t.Fatalf("drain %d: got %v, want one transaction", i, b)
		}
		order = append(order, b.Transactions[0].ID/100)
	}
	for i, l := range order {
		if want := uint64(i % lanes); l != want {
			t.Fatalf("single-transaction drains came from lanes %v, want 0, 1, 2 in rotation", order)
		}
	}
}

// TestFairDrainPreservesLaneFIFO: interleaving across lanes must not reorder
// within a lane.
func TestFairDrainPreservesLaneFIFO(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 1000, Lanes: 4})
	clients := laneClients(t, p)
	for i := uint64(0); i < 50; i++ {
		for l := 0; l < 4; l++ {
			if err := p.SubmitClient(clients[l], tx(uint64(l)*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := p.NextBatch(0, 200)
	if b == nil || len(b.Transactions) != 200 {
		t.Fatalf("drained %v, want 200", b)
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

// TestLaneForMatchesFNV pins the client-to-lane mapping: the inlined hash is
// 32-bit FNV-1a, so every client keeps the lane hash/fnv gave it.
func TestLaneForMatchesFNV(t *testing.T) {
	for _, lanes := range []int{2, 4, 16} {
		p := NewFair(FairConfig{Lanes: lanes})
		for i := 0; i < 64; i++ {
			client := fmt.Sprintf("client-%d", i)
			h := fnv.New32a()
			_, _ = h.Write([]byte(client))
			if got, want := p.LaneFor(client), int(h.Sum32()%uint32(lanes)); got != want {
				t.Fatalf("lanes=%d: LaneFor(%q) = %d, hash/fnv gives %d", lanes, client, got, want)
			}
		}
	}
}

// TestFairMatchesLaneModel drives a pool and a model — one slice per lane —
// with the same seeded submits and drains. Each submit must hit ErrFull
// exactly when the model's lane holds ceil(MaxSize/Lanes); each drained
// transaction must be the oldest of its lane; a drain must return
// min(maxTx, pending), and a lane left non-empty must have had every turn
// (no lane took more than one transaction beyond it). At the end everything
// admitted has been drained exactly once and the counters agree.
func TestFairMatchesLaneModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lanes := 1 + rng.Intn(5)
		maxSize := lanes + rng.Intn(60)
		limit := (maxSize + lanes - 1) / lanes
		p := NewFair(FairConfig{MaxSize: maxSize, Lanes: lanes})
		clients := make([]string, 12)
		for i := range clients {
			clients[i] = fmt.Sprintf("c%d-%d", seed, i)
		}
		model := make([][]uint64, lanes)
		laneOf := map[uint64]int{}
		drained := map[uint64]bool{}
		var want Stats
		var nextID uint64
		pending := func() int {
			n := 0
			for _, m := range model {
				n += len(m)
			}
			return n
		}
		drain := func(maxTx int) {
			b := p.NextBatch(0, maxTx)
			var got []types.Transaction
			if b != nil {
				got = b.Transactions
			}
			if wantN := min(maxTx, pending()); len(got) != wantN {
				t.Fatalf("seed %d: drain(%d) returned %d, want %d", seed, maxTx, len(got), wantN)
			}
			took := make([]int, lanes)
			for _, x := range got {
				l := laneOf[x.ID]
				if len(model[l]) == 0 || model[l][0] != x.ID {
					t.Fatalf("seed %d: lane %d yielded %d, model head %v: FIFO violated", seed, l, x.ID, model[l])
				}
				if drained[x.ID] {
					t.Fatalf("seed %d: tx %d drained twice", seed, x.ID)
				}
				drained[x.ID] = true
				model[l] = model[l][1:]
				took[l]++
			}
			want.Drained += uint64(len(got))
			for l := range model {
				for m := range model {
					if len(model[l]) > 0 && took[m] > took[l]+1 {
						t.Fatalf("seed %d: lane %d kept a backlog but took %d while lane %d took %d", seed, l, took[l], m, took[m])
					}
				}
			}
		}
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 7:
				nextID++
				lane, err := 0, error(nil)
				if r == 0 {
					err = p.Submit(tx(nextID))
				} else {
					c := clients[rng.Intn(len(clients))]
					lane, err = p.LaneFor(c), p.SubmitClient(c, tx(nextID))
				}
				if full := len(model[lane]) == limit; full != (err == ErrFull) || (!full && err != nil) {
					t.Fatalf("seed %d op %d: lane %d holds %d of %d, submit err = %v", seed, op, lane, len(model[lane]), limit, err)
				}
				if err != nil {
					want.Rejected++
					continue
				}
				want.Submitted++
				model[lane] = append(model[lane], nextID)
				laneOf[nextID] = lane
			default:
				drain(1 + rng.Intn(2*limit))
			}
			if got := p.Pending(); got != pending() {
				t.Fatalf("seed %d op %d: Pending = %d, model holds %d", seed, op, got, pending())
			}
		}
		drain(pending() + 1)
		if len(drained) != len(laneOf) {
			t.Fatalf("seed %d: drained %d of %d admitted (loss)", seed, len(drained), len(laneOf))
		}
		if got := p.Stats(); got != want {
			t.Fatalf("seed %d: Stats = %+v, model %+v", seed, got, want)
		}
	}
}

// TestFairConcurrentSubmitDrain races many submitters against a drainer;
// run with -race. Every admitted transaction must be drained exactly once.
func TestFairConcurrentSubmitDrain(t *testing.T) {
	p := NewFair(FairConfig{MaxSize: 1 << 16, Lanes: 4})
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
