package mempool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hammerhead/internal/types"
)

func TestSubmitAndDrainFIFO(t *testing.T) {
	p := newSharded(100, 0)
	for i := uint64(1); i <= 5; i++ {
		if err := p.Submit(types.Transaction{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	b := p.NextBatch(0, 3)
	if b == nil || len(b.Transactions) != 3 {
		t.Fatalf("batch = %v, want 3 txs", b)
	}
	for i, tx := range b.Transactions {
		if tx.ID != uint64(i+1) {
			t.Fatalf("tx %d has ID %d, want FIFO order", i, tx.ID)
		}
	}
	if got := p.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	b2 := p.NextBatch(0, 10)
	if len(b2.Transactions) != 2 {
		t.Fatalf("second batch has %d txs, want 2", len(b2.Transactions))
	}
	if p.NextBatch(0, 10) != nil {
		t.Fatal("empty pool must return nil batch")
	}
}

func TestSubmitBackpressure(t *testing.T) {
	p := newSharded(2, 0)
	if err := p.Submit(types.Transaction{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(types.Transaction{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(types.Transaction{ID: 3}); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 2 submitted 1 rejected", st)
	}
	// Draining frees capacity.
	p.NextBatch(0, 1)
	if err := p.Submit(types.Transaction{ID: 3}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	p := newSharded(100000, 0)
	const n = 5000
	for i := uint64(1); i <= n; i++ {
		if err := p.Submit(types.Transaction{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	var next uint64 = 1
	for {
		b := p.NextBatch(0, 700)
		if b == nil {
			break
		}
		for _, tx := range b.Transactions {
			if tx.ID != next {
				t.Fatalf("got ID %d, want %d", tx.ID, next)
			}
			next++
		}
	}
	if next != n+1 {
		t.Fatalf("drained %d txs, want %d", next-1, n)
	}
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {17, 32},
	} {
		if got := len(newSharded(10, tc.ask).shards); got != tc.want {
			t.Fatalf("newSharded(shards=%d) built %d shards, want %d", tc.ask, got, tc.want)
		}
	}
	if got := len(newSharded(10, 0).shards); got&(got-1) != 0 || got < 1 {
		t.Fatalf("default shard count %d is not a power of two", got)
	}
}

func TestShardedFIFOAcrossShardCounts(t *testing.T) {
	// Single-threaded submit/drain must stay globally FIFO for every shard
	// count: the round-robin drain cursor follows the round-robin submit
	// cursor, skipping empty shards.
	for _, shards := range []int{1, 2, 4, 8, 16} {
		p := newSharded(10000, shards)
		for i := uint64(1); i <= 1000; i++ {
			if err := p.Submit(types.Transaction{ID: i}); err != nil {
				t.Fatal(err)
			}
		}
		var next uint64 = 1
		for {
			b := p.NextBatch(0, 7)
			if b == nil {
				break
			}
			for _, tx := range b.Transactions {
				if tx.ID != next {
					t.Fatalf("shards=%d: got ID %d, want %d", shards, tx.ID, next)
				}
				next++
			}
		}
		if next != 1001 {
			t.Fatalf("shards=%d: drained %d txs, want 1000", shards, next-1)
		}
	}
}

func TestCapacityExactUnderConcurrency(t *testing.T) {
	// The pool-wide bound must hold exactly: with capacity C and more than
	// C concurrent submissions and no draining, exactly C are admitted.
	const capacity = 64
	p := newSharded(capacity, 8)
	var wg sync.WaitGroup
	var accepted, rejected atomic.Uint64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if err := p.Submit(types.Transaction{ID: uint64(g*32 + i + 1)}); err == nil {
					accepted.Add(1)
				} else if err == ErrFull {
					rejected.Add(1)
				} else {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if accepted.Load() != capacity {
		t.Fatalf("accepted %d, want exactly %d", accepted.Load(), capacity)
	}
	if got := p.Pending(); got != capacity {
		t.Fatalf("Pending = %d, want %d", got, capacity)
	}
	st := p.Stats()
	if st.Submitted != capacity || st.Rejected != rejected.Load() || st.Rejected != 16*32-capacity {
		t.Fatalf("stats = %+v, want %d submitted %d rejected", st, capacity, 16*32-capacity)
	}
}

// TestConcurrentNoLossNoDuplication is the sharded pool's core property
// test, run under -race in CI: N submitters and a concurrent drainer; every
// admitted transaction is drained exactly once, and the Stats accounting is
// exact.
func TestConcurrentNoLossNoDuplication(t *testing.T) {
	const (
		submitters   = 8
		perSubmitter = 5000
	)
	p := newSharded(1<<16, 8)
	var wg sync.WaitGroup
	var accepted, rejected atomic.Uint64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id := uint64(g*perSubmitter + i + 1)
				for {
					err := p.Submit(types.Transaction{ID: id})
					if err == nil {
						accepted.Add(1)
						break
					}
					if err != ErrFull {
						t.Errorf("unexpected error: %v", err)
						return
					}
					rejected.Add(1)
					runtime.Gosched() // full: let the drainer catch up
				}
			}
		}(g)
	}

	seen := make(map[uint64]int, submitters*perSubmitter)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	drain := func() {
		for {
			b := p.NextBatch(0, 97)
			if b == nil {
				return
			}
			for _, tx := range b.Transactions {
				seen[tx.ID]++
			}
		}
	}
	for {
		drain()
		select {
		case <-done:
			drain() // final sweep after all submitters finished
			if p.Pending() != 0 {
				t.Fatalf("pending = %d after full drain", p.Pending())
			}
			if len(seen) != submitters*perSubmitter {
				t.Fatalf("drained %d distinct txs, want %d (loss)", len(seen), submitters*perSubmitter)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("tx %d drained %d times (duplication)", id, n)
				}
			}
			st := p.Stats()
			if st.Submitted != accepted.Load() || st.Rejected != rejected.Load() || st.Drained != st.Submitted {
				t.Fatalf("stats = %+v, want submitted=%d rejected=%d drained=submitted",
					st, accepted.Load(), rejected.Load())
			}
			return
		default:
			runtime.Gosched()
		}
	}
}

func TestConcurrentSubmitDrain(t *testing.T) {
	p := newSharded(1<<20, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = p.Submit(types.Transaction{ID: uint64(g*1000 + i + 1)})
			}
		}(g)
	}
	var drained int
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		for i := 0; i < 2000; i++ {
			if b := p.NextBatch(0, 7); b != nil {
				drained += len(b.Transactions)
			}
		}
	}()
	wg.Wait()
	dwg.Wait()
	total := drained + p.Pending()
	if total != 4000 {
		t.Fatalf("drained+pending = %d, want 4000", total)
	}
}
