package main

import (
	"encoding/json"
	"time"
)

// workload pins one traffic mix. The serve-* workloads run real validator
// processes on loopback TCP; sim-faults runs the paper's faulty-committee
// comparison in virtual time through the root facade.
type workload struct {
	Name string
	Why  string

	// serve-* shape. Zero TxPerSec marks the simulated workload.
	TxPerSec   int // offered open-loop write load
	Batch      int // transactions per POST /v1/tx
	ReadsPerS  int // verified reads per second on the same schedule
	Preload    bool
	Replica    bool
	NodeFlags  []string
	ProbeShape int // tx per header the isolation probes are sized to
}

const keySpace = 10000

var workloads = []workload{
	{
		Name:     "serve-steady",
		Why:      "2000 tx/s open loop on 4 real validators: pacing-bound, so engine/commit-rule changes show and CPU work barely does",
		TxPerSec: 2000, Batch: 8, ProbeShape: 125,
	},
	{
		Name:     "serve-heavy",
		Why:      "6000 tx/s open loop, 375 of at most 500 tx per header at the default pacing: per-tx CPU layers (decode, mempool, wire, hashing, Merkle apply) dominate",
		TxPerSec: 6000, Batch: 64, ProbeShape: 375,
	},
	{
		Name:     "serve-readmix",
		Why:      "1000 tx/s of puts beside 400 proof-verified reads/s, half on a replica: reads share the executor lock and trie with apply",
		TxPerSec: 1000, Batch: 8, ReadsPerS: 400, Preload: true, Replica: true,
		NodeFlags:  []string{"-checkpoint-certs", "-checkpoint-interval", "2"},
		ProbeShape: 62,
	},
	{
		Name: "sim-faults",
		Why:  "paper Figure 2 in virtual time: n=50 geo committee, 16 crashed, round-robin vs HammerHead; only protocol logic matters",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) simulated() bool { return w.TxPerSec == 0 }

// latencyLimitMs is the commit_p95_ms a write-only serve workload is sized to
// stay under: six rounds of the node's default 250 ms pacing.
const latencyLimitMs = 1500

func (w workload) latencyLimited() bool { return !w.simulated() && w.ReadsPerS == 0 }

// warmup is the slice of every serve-* run that is driven and checked but
// not measured.
func warmup(seconds int) time.Duration {
	if seconds < 10 {
		return time.Second
	}
	return 2 * time.Second
}

// simVirtualPerSecond converts --seconds into virtual run length for
// sim-faults: the default 20 s gives the paper scenario's 120 virtual seconds.
const simVirtualPerSecond = 6

// setupRepeats is how many times a run brings the system up from nothing;
// setup_s is the median. The simulated set-up is a tenth of a second of
// process start, so it can afford, and needs, more.
const (
	setupRepeats    = 3
	simSetupRepeats = 9
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them and none can read zero, which is why read latency and the
// round-robin ratios are per-layer rows, and CPU per transaction is one
// because it cannot hold a bound on a shared host (README "Where this departs
// from the issue", "Bounds"). Each bound is at least three times the widest
// quartile spread ten seeds showed on any workload, as the benchmark contract
// asks, in steps of 0.05.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.20},
	{"commit_p95_ms", "ms", "lower", 0.20},
	{"throughput_tx_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// budgetPackages are the repository modules a CPU sample can be charged to.
var budgetPackages = []string{
	"rpc", "mempool", "crypto", "engine", "dag", "bullshark", "core", "leader", "storage",
	"execution", "merkle", "checkpoint", "transport", "wire", "obs", "metrics", "node",
}

// traceStages maps consecutive /v1/trace stages to the layer that owns the
// wait between them.
var traceStages = []struct{ From, To, Layer string }{
	{"admitted", "proposed", "mempool.wait"},
	{"proposed", "cert_formed", "engine.cert"},
	{"cert_formed", "ordered", "bullshark.order_wait"},
	{"ordered", "durable", "storage.durable"},
	{"durable", "streamed", "rpc.stream"},
	{"streamed", "applied", "execution.apply"},
}

// probeMetrics are the isolation timings bench/probes prints, in order.
var probeMetrics = []metricDef{
	{Name: "crypto.verify_us_per_sig", Unit: "us", Better: "lower"},
	{Name: "wire.header_codec_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "mempool.admit_drain_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "dag.insert_us_per_cert", Unit: "us", Better: "lower"},
	{Name: "bullshark.order_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "execution.apply_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "merkle.prove_us", Unit: "us", Better: "lower"},
	{Name: "merkle.verify_us", Unit: "us", Better: "lower"},
	{Name: "rpc.submit_decode_us_per_tx", Unit: "us", Better: "lower"},
}

// perLayer lists every per-layer row. A row that does not apply to a
// workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	low := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	high := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	var out []metricDef
	// Waits between commit-path stages, from /v1/trace on the admitting validator.
	for _, s := range traceStages {
		out = append(out, low(s.Layer+"_p50_ms", "ms"), low(s.Layer+"_p95_ms", "ms"))
	}
	out = append(out,
		low("system.cpu_us_per_tx", "us"),
		high("obs.trace_complete_share", "share"),
		low("obs.traced_commit_p50_ms", "ms"),
		// Spans the generator records around its own calls.
		low("rpc.submit_ack_p50_ms", "ms"),
		low("rpc.submit_ack_p95_ms", "ms"),
		low("rpc.rejected_share", "share"),
		low("client.read_p50_ms", "ms"),
		low("client.read_p95_ms", "ms"),
		low("rpc.read_plain_p50_ms", "ms"),
		low("merkle.proof_overhead_p50_ms", "ms"),
		low("client.commit_p99_ms", "ms"),
		low("loadgen.late_p95_ms", "ms"),
		high("loadgen.achieved_rate_share", "share"),
		low("run.generator_bound", "count"),
		low("run.disturbed", "count"),
		// Counts and queues from /v1/status, /metrics, /proc and the WAL file.
		low("engine.round_ms", "ms"),
		high("engine.tx_per_header", "count"),
		high("bullshark.commits_per_s", "1/s"),
		high("bullshark.tx_per_commit", "count"),
		low("mempool.pending_max", "count"),
		low("engine.pipeline_depth_max", "count"),
		low("node.commit_queue_max", "count"),
		low("storage.wal_queue_max", "count"),
		low("storage.wal_bytes_per_tx", "B"),
		low("execution.queue_max", "count"),
		low("execution.applied_lag_max", "count"),
		low("crypto.verify_queue_max", "count"),
		high("crypto.verify_batch_mean", "count"),
		low("crypto.preverify_dropped", "count"),
		low("transport.io_bytes_per_tx", "B"),
		low("replica.lag_commits_max", "count"),
		// Protocol counters: node status logs on serve-*, the facade's
		// result on sim-faults (rr.* is the round-robin run).
		low("engine.leader_timeouts", "count"),
		low("bullshark.skipped_anchors", "count"),
		low("core.schedule_switches", "count"),
		low("core.excluded", "count"),
		low("rr.engine.leader_timeouts", "count"),
		low("rr.bullshark.skipped_anchors", "count"),
		low("rr.core.schedule_switches", "count"),
		low("rr.core.excluded", "count"),
		low("rr.commit_p50_ms", "ms"),
		high("rr.throughput_tx_s", "1/s"),
		high("sim.latency_gain_vs_rr", "ratio"),
		high("sim.throughput_gain_vs_rr", "ratio"),
		high("simnet.virtual_s_per_wall_s", "ratio"),
	)
	// Busy time in situ: validator 0's CPU profile charged to modules.
	for _, p := range budgetPackages {
		out = append(out, low(p+".cpu_us_per_tx", "us"))
	}
	out = append(out,
		low("runtime.cpu_us_per_tx", "us"),
		high("budget.attributed_share", "share"),
		// Busy time in isolation.
		high("probes.built", "count"),
	)
	return append(out, probeMetrics...)
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the runner cannot drift (bench_test.go compares them).
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
