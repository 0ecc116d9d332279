// Package obs is the node's observability layer: per-transaction lifecycle
// tracing through every stage of the commit path, and the shared structured
// logger the cmds hand to node/replica/gateway.
//
// The Tracer answers the question aggregate metrics cannot: where did ONE
// transaction spend its time between POST /v1/tx and the SSE commit event?
// Each accepted tx ID accrues one wall-clock timestamp per lifecycle stage
// (admitted → proposed → cert_formed → ordered → durable → streamed →
// applied), recorded from whatever goroutine drives that stage. The
// collector is a lock-sharded ring of fixed-size slots — recording is a
// shard-mutex map hit plus seven int64 writes, no allocation on the steady
// path and never a channel send, so it is safe to call from the engine and
// commit-delivery goroutines (`//hammerlint:nonblocking`).
//
// Determinism: Record takes its own time.Now() reading INSIDE the tracer.
// That is deliberate — it makes every record path determinism-tainted in
// hammerlint's cross-package analysis, so a `//hammerlint:deterministic`
// root (wire encoders, ApplyCommit, commit ordering) that ever calls into
// this package fails `go vet -vettool=hammerlint` and TestRepoIsClean.
// Tracing hooks therefore live strictly OUTSIDE consensus-critical
// encode/compare paths, enforced mechanically rather than by convention.
package obs

import (
	"sync"
	"time"

	"hammerhead/internal/metrics"
)

// Stage is one commit-path lifecycle stage. The numeric order IS the causal
// order a transaction moves through; trace waterfalls report stages in this
// order and tests assert the recorded timestamps are monotonic along it.
type Stage uint8

// The commit-path stages, in causal order. `streamed` precedes `applied`
// because commit delivery publishes the SSE event before handing the commit
// to the executor's asynchronous apply queue.
const (
	// StageAdmitted: the tx passed fair admission into a mempool lane
	// (recorded by the gateway's HTTP handler goroutine).
	StageAdmitted Stage = iota
	// StageProposed: the tx was batched into this validator's own header
	// (engine goroutine, at proposal persist+broadcast).
	StageProposed
	// StageCertFormed: the own header carrying the tx reached a 2f+1 vote
	// quorum and became a certificate (engine goroutine).
	StageCertFormed
	// StageOrdered: the Bullshark anchor walk committed the sub-DAG
	// containing the tx (engine goroutine, fresh commits only — WAL replay
	// records nothing).
	StageOrdered
	// StageDurable: the commit's WAL write passed the durability watermark
	// (commit-delivery goroutine; trivially immediate when the node runs
	// without a WAL).
	StageDurable
	// StageStreamed: the commit event entered the gateway's SSE ring
	// (commit-delivery goroutine).
	StageStreamed
	// StageApplied: the executor applied the commit to the state machine
	// (executor goroutine).
	StageApplied

	// NumStages is the number of lifecycle stages.
	NumStages = int(StageApplied) + 1
)

// stageNames indexes Stage → wire name.
var stageNames = [NumStages]string{
	"admitted", "proposed", "cert_formed", "ordered", "durable", "streamed", "applied",
}

// String returns the stage's wire name (used in trace responses, metric
// labels and reports).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the stage wire names in causal order.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// Trace is one transaction's recorded waterfall: Times[s] is the UnixNano
// timestamp at which stage s was recorded, 0 if never reached (or evicted
// before it was).
type Trace struct {
	TxID  uint64
	Times [NumStages]int64
}

// Complete reports whether every stage up to and including last was
// recorded.
func (t Trace) Complete(last Stage) bool {
	for s := Stage(0); s <= last; s++ {
		if t.Times[s] == 0 {
			return false
		}
	}
	return true
}

// StageLatencyMetric is the base name of the per-stage latency histogram
// exposed on /metrics; the stage rides in a `stage` label.
const StageLatencyMetric = "hammerhead_stage_latency_seconds"

// stageLatencyBounds are the histogram bucket bounds (seconds) for
// per-stage latencies: sub-millisecond hops up to multi-second stalls.
var stageLatencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultSlots is the default total trace capacity (FIFO-evicted).
const DefaultSlots = 1 << 16

// numShards spreads record traffic over independent locks. Power of two.
const numShards = 16

// slot is one transaction's in-ring trace record.
type slot struct {
	id    uint64
	times [NumStages]int64
}

// shard is one lock's worth of the ring: a fixed slot array reused FIFO
// plus the id → slot index.
type shard struct {
	mu    sync.Mutex
	index map[uint64]int
	slots []slot
	used  int // slots in use; == len(slots) once the ring wrapped
	next  int // next slot to (re)use
}

// Tracer is the lock-sharded trace collector. The nil *Tracer is valid and
// records nothing, so call sites need no tracing-enabled branches.
type Tracer struct {
	shards [numShards]shard
	hists  [NumStages]*metrics.Histogram
}

// NewTracer builds a tracer retaining up to slots traces (0 =
// DefaultSlots), FIFO-evicted per shard. When reg is non-nil, every record
// also feeds the per-stage latency histograms on /metrics.
func NewTracer(slots int, reg *metrics.Registry) *Tracer {
	if slots <= 0 {
		slots = DefaultSlots
	}
	perShard := (slots + numShards - 1) / numShards
	t := &Tracer{}
	for i := range t.shards {
		t.shards[i].slots = make([]slot, perShard)
		t.shards[i].index = make(map[uint64]int, perShard)
	}
	if reg != nil {
		for s := 0; s < NumStages; s++ {
			t.hists[s] = reg.LabeledHistogram(StageLatencyMetric, stageLatencyBounds,
				metrics.Label{Name: "stage", Value: stageNames[s]})
		}
	}
	return t
}

// mix hashes a tx ID onto a shard; sequential IDs must not pile onto one
// lock (splitmix64 finalizer).
func mix(id uint64) uint64 {
	id ^= id >> 30
	id *= 0xbf58476d1ce4e5b9
	id ^= id >> 27
	id *= 0x94d049bb133111eb
	id ^= id >> 31
	return id
}

// Record stamps stage for txID, creating the trace on first sight. First
// write per stage wins: a replayed or duplicate event never overwrites the
// original timestamp.
//
//hammerlint:nonblocking
func (t *Tracer) Record(stage Stage, txID uint64) {
	if t == nil {
		return
	}
	t.record(stage, txID, true)
}

// RecordSeen stamps stage for txID only if the trace already exists. Later
// stages use it so transactions that predate this tracer's lifetime (WAL
// replay, ring eviction) accrue no fabricated waterfall suffix.
//
//hammerlint:nonblocking
func (t *Tracer) RecordSeen(stage Stage, txID uint64) {
	if t == nil {
		return
	}
	t.record(stage, txID, false)
}

//hammerlint:nonblocking
func (t *Tracer) record(stage Stage, txID uint64, create bool) {
	now := time.Now().UnixNano()
	sh := &t.shards[mix(txID)&(numShards-1)]
	var prev int64
	sh.mu.Lock()
	i, ok := sh.index[txID]
	if !ok {
		if !create {
			sh.mu.Unlock()
			return
		}
		i = sh.next
		if sh.used < len(sh.slots) {
			sh.used++
		} else {
			delete(sh.index, sh.slots[i].id) // FIFO eviction
		}
		sh.slots[i] = slot{id: txID}
		sh.index[txID] = i
		sh.next++
		if sh.next == len(sh.slots) {
			sh.next = 0
		}
	}
	s := &sh.slots[i]
	if s.times[stage] == 0 {
		s.times[stage] = now
		// Stage latency = delta from the latest earlier recorded stage.
		for p := int(stage) - 1; p >= 0; p-- {
			if s.times[p] != 0 {
				prev = s.times[p]
				break
			}
		}
	}
	sh.mu.Unlock()
	if prev != 0 && t.hists[stage] != nil {
		t.hists[stage].Observe(float64(now-prev) / 1e9)
	}
}

// Lookup returns txID's trace, if still retained.
func (t *Tracer) Lookup(txID uint64) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	sh := &t.shards[mix(txID)&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.index[txID]
	if !ok {
		return Trace{}, false
	}
	return Trace{TxID: txID, Times: sh.slots[i].times}, true
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}
