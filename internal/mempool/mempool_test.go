package mempool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hammerhead/internal/types"
)

func TestSubmitAndDrainFIFO(t *testing.T) {
	q := &laneQueue{limit: 100}
	for i := uint64(1); i <= 5; i++ {
		if err := q.submit(types.Transaction{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	b := q.take(nil, 3)
	if len(b) != 3 {
		t.Fatalf("took %v, want 3 txs", b)
	}
	for i, tx := range b {
		if tx.ID != uint64(i+1) {
			t.Fatalf("tx %d has ID %d, want FIFO order", i, tx.ID)
		}
	}
	if got, _ := q.state(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	if b2 := q.take(nil, 10); len(b2) != 2 {
		t.Fatalf("second take has %d txs, want 2", len(b2))
	}
	if b3 := q.take(nil, 10); len(b3) != 0 {
		t.Fatalf("empty lane yielded %d txs", len(b3))
	}
}

func TestSubmitBackpressure(t *testing.T) {
	q := &laneQueue{limit: 2}
	if err := q.submit(types.Transaction{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.submit(types.Transaction{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.submit(types.Transaction{ID: 3}); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if _, st := q.state(); st.Submitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 2 submitted 1 rejected", st)
	}
	// Draining frees capacity.
	q.take(nil, 1)
	if err := q.submit(types.Transaction{ID: 3}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	q := &laneQueue{limit: 100000}
	const n = 5000
	for i := uint64(1); i <= n; i++ {
		if err := q.submit(types.Transaction{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	var next uint64 = 1
	for {
		b := q.take(nil, 700)
		if len(b) == 0 {
			break
		}
		for _, tx := range b {
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

func TestCapacityExactUnderConcurrency(t *testing.T) {
	// The lane bound must hold exactly: with capacity C and more than C
	// concurrent submissions and no draining, exactly C are admitted.
	const capacity = 64
	q := &laneQueue{limit: capacity}
	var wg sync.WaitGroup
	var accepted, rejected atomic.Uint64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if err := q.submit(types.Transaction{ID: uint64(g*32 + i + 1)}); err == nil {
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
	pending, st := q.state()
	if pending != capacity {
		t.Fatalf("pending = %d, want %d", pending, capacity)
	}
	if st.Submitted != capacity || st.Rejected != rejected.Load() || st.Rejected != 16*32-capacity {
		t.Fatalf("stats = %+v, want %d submitted %d rejected", st, capacity, 16*32-capacity)
	}
}

// TestConcurrentNoLossNoDuplication is the lane queue's core property test,
// run under -race in CI: N submitters and a concurrent drainer; every
// admitted transaction is drained exactly once, each submitter's
// transactions drain in its submission order, and the Stats accounting is
// exact.
func TestConcurrentNoLossNoDuplication(t *testing.T) {
	const (
		submitters   = 8
		perSubmitter = 5000
	)
	q := &laneQueue{limit: 1 << 16}
	var wg sync.WaitGroup
	var accepted, rejected atomic.Uint64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id := uint64(g*perSubmitter + i + 1)
				for {
					err := q.submit(types.Transaction{ID: id})
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
	last := make([]uint64, submitters)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	drain := func() {
		for {
			b := q.take(nil, 97)
			if len(b) == 0 {
				return
			}
			for _, tx := range b {
				seen[tx.ID]++
				g := (tx.ID - 1) / perSubmitter
				if tx.ID <= last[g] {
					t.Fatalf("submitter %d: tx %d drained after %d", g, tx.ID, last[g])
				}
				last[g] = tx.ID
			}
		}
	}
	for {
		drain()
		select {
		case <-done:
			drain() // final sweep after all submitters finished
			pending, st := q.state()
			if pending != 0 {
				t.Fatalf("pending = %d after full drain", pending)
			}
			if len(seen) != submitters*perSubmitter {
				t.Fatalf("drained %d distinct txs, want %d (loss)", len(seen), submitters*perSubmitter)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("tx %d drained %d times (duplication)", id, n)
				}
			}
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
	q := &laneQueue{limit: 1 << 20}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = q.submit(types.Transaction{ID: uint64(g*1000 + i + 1)})
			}
		}(g)
	}
	var drained int
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		for i := 0; i < 2000; i++ {
			drained += len(q.take(nil, 7))
		}
	}()
	wg.Wait()
	dwg.Wait()
	pending, _ := q.state()
	if total := drained + pending; total != 4000 {
		t.Fatalf("drained+pending = %d, want 4000", total)
	}
}
