// Fair admission: the laned pool the client gateway feeds.
//
// A single shared queue lets one saturating client fill the whole mempool and
// starve everyone else — admission becomes first-come-first-flooded. FairPool
// partitions admission into lanes keyed by client ID: each lane is its own
// bounded FIFO (so a hot client exhausts only its lane's cap and gets ErrFull
// while other lanes keep admitting), and the engine-facing drain takes one
// transaction from each non-empty lane in turn, so a backlogged lane cannot
// monopolize header batches either. Per-lane FIFO order is preserved.
//
// With one lane — the configuration the simulator runs — the pool is one
// FIFO of capacity MaxSize.
package mempool

import "hammerhead/internal/types"

// FairConfig parameterizes a FairPool.
type FairConfig struct {
	// MaxSize bounds the pool-wide pending count (0 = 1<<20). Each lane holds
	// at most ceil(MaxSize/Lanes): a client saturating its lane can never
	// consume another lane's admission headroom.
	MaxSize int
	// Lanes is the number of admission lanes (<= 1: one). Client IDs hash
	// onto lanes.
	Lanes int
	// OnAdmit, when non-nil, observes every transaction that clears
	// admission (any lane) — the tracing tap for the "admitted" lifecycle
	// stage. It runs on the submitter's goroutine after the transaction is
	// in its lane; it must not block. Rejected transactions are not
	// reported.
	OnAdmit func(tx types.Transaction)
}

// LaneStats is one lane's instantaneous and cumulative counters.
type LaneStats struct {
	Lane  int
	Depth int
	Cap   int
	Stats Stats
}

// FairPool is the laned admission pool. It implements engine.BatchProvider;
// any number of clients submit concurrently while the engine drains from its
// own goroutine.
type FairPool struct {
	lanes   []laneQueue
	onAdmit func(tx types.Transaction)
	// next is the lane the next drain starts from. Only the draining
	// goroutine touches it.
	next int
}

// NewFair builds a fair-admission pool.
func NewFair(cfg FairConfig) *FairPool {
	if cfg.MaxSize < 1 {
		cfg.MaxSize = 1 << 20
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	p := &FairPool{lanes: make([]laneQueue, cfg.Lanes), onAdmit: cfg.OnAdmit}
	for i := range p.lanes {
		p.lanes[i].limit = (cfg.MaxSize + cfg.Lanes - 1) / cfg.Lanes
	}
	return p
}

// LaneFor maps a client ID onto its lane: the ID's 32-bit FNV-1a hash modulo
// the lane count.
func (p *FairPool) LaneFor(client string) int {
	h := uint32(2166136261)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= 16777619
	}
	return int(h % uint32(len(p.lanes)))
}

// Submit enqueues onto lane 0 — the default lane for traffic with no client
// attribution (the node's own Submit path, simulators, tests).
func (p *FairPool) Submit(tx types.Transaction) error {
	return p.admit(0, tx)
}

// SubmitClient enqueues on the client's lane, returning ErrFull when that
// lane's cap is reached — other clients' lanes are unaffected, which is the
// whole point.
func (p *FairPool) SubmitClient(client string, tx types.Transaction) error {
	return p.admit(p.LaneFor(client), tx)
}

// admit funnels every submission path through its lane and fires the
// OnAdmit tap on success.
func (p *FairPool) admit(lane int, tx types.Transaction) error {
	if err := p.lanes[lane].submit(tx); err != nil {
		return err
	}
	if p.onAdmit != nil {
		p.onAdmit(tx)
	}
	return nil
}

// NextBatch implements engine.BatchProvider: up to maxTx transactions drained
// round-robin across the non-empty lanes, one transaction per lane per turn,
// or nil when the pool is empty (empty headers are valid and keep rounds
// advancing under low load). Intended for one draining goroutine (the
// engine's).
func (p *FairPool) NextBatch(_ int64, maxTx int) *types.Batch {
	pending := p.Pending()
	if maxTx < 1 || pending == 0 {
		return nil
	}
	txs := make([]types.Transaction, 0, min(maxTx, pending))
	// live holds the lanes not yet found empty, in turn order from p.next.
	live := make([]int, len(p.lanes))
	for i := range live {
		live[i] = (p.next + i) % len(p.lanes)
	}
	for i := 0; len(live) > 0 && len(txs) < maxTx; {
		if i == len(live) {
			i = 0
		}
		lane := live[i]
		turn := 1
		if len(live) == 1 {
			turn = maxTx - len(txs) // a lone lane takes every remaining turn
		}
		before := len(txs)
		if txs = p.lanes[lane].take(txs, turn); len(txs) == before {
			live = append(live[:i], live[i+1:]...)
			continue
		}
		p.next = (lane + 1) % len(p.lanes)
		i++
	}
	if len(txs) == 0 {
		return nil
	}
	return &types.Batch{Transactions: txs}
}

// Pending returns the pool-wide queued transaction count.
func (p *FairPool) Pending() int {
	total := 0
	for i := range p.lanes {
		depth, _ := p.lanes[i].state()
		total += depth
	}
	return total
}

// Stats sums the lane counters.
func (p *FairPool) Stats() Stats {
	var total Stats
	for i := range p.lanes {
		_, s := p.lanes[i].state()
		total.Submitted += s.Submitted
		total.Rejected += s.Rejected
		total.Drained += s.Drained
	}
	return total
}

// LaneStats reports every lane's depth, cap and counters.
func (p *FairPool) LaneStats() []LaneStats {
	out := make([]LaneStats, len(p.lanes))
	for i := range p.lanes {
		depth, s := p.lanes[i].state()
		out[i] = LaneStats{Lane: i, Depth: depth, Cap: p.lanes[i].limit, Stats: s}
	}
	return out
}
