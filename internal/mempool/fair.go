// Fair admission: the laned pool the client gateway feeds.
//
// A single shared queue lets one saturating client fill the whole mempool and
// starve everyone else — admission becomes first-come-first-flooded. FairPool
// partitions admission into weighted lanes keyed by client ID: each lane is
// its own bounded shardedPool (so a hot client exhausts only its lane's cap
// and gets ErrFull while other lanes keep admitting), and the engine-facing
// drain interleaves lanes by weight (smooth weighted round-robin, one
// transaction per pick), so a backlogged lane cannot monopolize header
// batches either. Per-lane FIFO order is preserved.
//
// With Lanes <= 1 the pool is exactly one shardedPool: Submit and NextBatch
// delegate straight to it — the configuration the simulator runs, whose
// determinism and seed tests' ordering expectations rest on that queue's
// FIFO drain.
package mempool

import (
	"hash/fnv"

	"hammerhead/internal/types"
)

// FairConfig parameterizes a FairPool.
type FairConfig struct {
	// MaxSize bounds the pool-wide pending count (0 = 1<<20). It is divided
	// into per-lane caps by weight share, so the sum of lane caps is MaxSize
	// (rounded up per lane): a client saturating its lane can never consume
	// another lane's reserved admission headroom.
	MaxSize int
	// Shards is each lane's internal shard count (see newSharded; 0 sizes it
	// to the machine).
	Shards int
	// Lanes is the number of admission lanes. Client IDs hash onto lanes.
	// <= 1 keeps a single lane with exact shardedPool semantics.
	Lanes int
	// Weights gives each lane's drain weight and capacity share (missing or
	// non-positive entries default to 1). len(Weights) beyond Lanes is
	// ignored.
	Weights []int
	// OnAdmit, when non-nil, observes every transaction that clears
	// admission (any lane) — the tracing tap for the "admitted" lifecycle
	// stage. It runs on the submitter's goroutine after the transaction is
	// in its lane; it must not block. Rejected transactions are not
	// reported.
	OnAdmit func(tx types.Transaction)
}

// LaneStats is one lane's instantaneous and cumulative counters.
type LaneStats struct {
	Lane   int
	Depth  int
	Cap    int
	Weight int
	Stats  Stats
}

// lane is one admission class: a bounded queue plus its drain weight and the
// smooth-WRR credit balance.
type lane struct {
	pool   *shardedPool
	weight int
	cap    int
	// credit is the smooth weighted round-robin balance. Only the draining
	// goroutine touches it.
	credit int
}

// FairPool is a weighted-lane admission layer over sharded Pools. It
// implements engine.BatchProvider; any number of clients submit concurrently
// while the engine drains from its own goroutine.
type FairPool struct {
	lanes       []lane
	totalWeight int
	onAdmit     func(tx types.Transaction)
}

// NewFair builds a fair-admission pool.
func NewFair(cfg FairConfig) *FairPool {
	if cfg.MaxSize < 1 {
		cfg.MaxSize = 1 << 20
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	p := &FairPool{lanes: make([]lane, cfg.Lanes), onAdmit: cfg.OnAdmit}
	for i := range p.lanes {
		w := 1
		if i < len(cfg.Weights) && cfg.Weights[i] > 0 {
			w = cfg.Weights[i]
		}
		p.lanes[i].weight = w
		p.totalWeight += w
	}
	for i := range p.lanes {
		// Capacity follows weight share, rounded up so every lane can hold at
		// least one transaction.
		c := (cfg.MaxSize*p.lanes[i].weight + p.totalWeight - 1) / p.totalWeight
		if cfg.Lanes == 1 {
			c = cfg.MaxSize // exact single-queue semantics
		}
		p.lanes[i].cap = c
		p.lanes[i].pool = newSharded(c, cfg.Shards)
	}
	return p
}

// Lanes returns the lane count.
func (p *FairPool) Lanes() int { return len(p.lanes) }

// LaneFor maps a client ID onto its lane.
func (p *FairPool) LaneFor(client string) int {
	if len(p.lanes) == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(client))
	return int(h.Sum32() % uint32(len(p.lanes)))
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

// SubmitLane enqueues directly onto a lane (tests, static lane assignment).
func (p *FairPool) SubmitLane(laneIdx int, tx types.Transaction) error {
	return p.admit(laneIdx%len(p.lanes), tx)
}

// admit funnels every submission path through the lane's pool and fires the
// OnAdmit tap on success.
func (p *FairPool) admit(laneIdx int, tx types.Transaction) error {
	if err := p.lanes[laneIdx].pool.Submit(tx); err != nil {
		return err
	}
	if p.onAdmit != nil {
		p.onAdmit(tx)
	}
	return nil
}

// NextBatch implements engine.BatchProvider: up to maxTx transactions drained
// by smooth weighted round-robin across non-empty lanes, one transaction per
// pick. A lane's long-run share of a contended drain equals its weight share
// among the non-empty lanes; per-lane FIFO order is preserved. Intended for
// one draining goroutine (the engine's), like shardedPool.
func (p *FairPool) NextBatch(nowNanos int64, maxTx int) *types.Batch {
	if len(p.lanes) == 1 {
		return p.lanes[0].pool.NextBatch(nowNanos, maxTx)
	}
	if maxTx < 1 {
		return nil
	}
	var txs []types.Transaction
	// skipLane marks lanes whose pop raced a mid-flight Submit (Pending
	// reserved but the shard append not yet visible): they sit out the rest
	// of this drain instead of being re-polled in a spin.
	skipLane := make([]bool, len(p.lanes))
	for len(txs) < maxTx {
		// Smooth WRR: every non-empty lane earns its weight in credit, the
		// richest lane yields one transaction and pays the active total back.
		best := -1
		active := 0
		for i := range p.lanes {
			if skipLane[i] || p.lanes[i].pool.Pending() == 0 {
				continue
			}
			active += p.lanes[i].weight
			p.lanes[i].credit += p.lanes[i].weight
			if best < 0 || p.lanes[i].credit > p.lanes[best].credit {
				best = i
			}
		}
		if best < 0 {
			break
		}
		tx, ok := p.lanes[best].pool.PopOne()
		if !ok {
			skipLane[best] = true
			continue
		}
		p.lanes[best].credit -= active
		txs = append(txs, tx)
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
		total += p.lanes[i].pool.Pending()
	}
	return total
}

// Stats sums the lane counters.
func (p *FairPool) Stats() Stats {
	var total Stats
	for i := range p.lanes {
		s := p.lanes[i].pool.Stats()
		total.Submitted += s.Submitted
		total.Rejected += s.Rejected
		total.Drained += s.Drained
	}
	return total
}

// LaneStats reports every lane's depth, cap, weight and counters.
func (p *FairPool) LaneStats() []LaneStats {
	out := make([]LaneStats, len(p.lanes))
	for i := range p.lanes {
		out[i] = LaneStats{
			Lane:   i,
			Depth:  p.lanes[i].pool.Pending(),
			Cap:    p.lanes[i].cap,
			Weight: p.lanes[i].weight,
			Stats:  p.lanes[i].pool.Stats(),
		}
	}
	return out
}
