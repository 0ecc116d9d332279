package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hammerhead"
	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/simnet"
	"hammerhead/internal/types"
)

// coreBenchFile is the committed perf-trajectory artifact: each row pins one
// hot path's current number so a PR that regresses it fails the gate instead
// of shipping the slowdown silently.
const coreBenchFile = "BENCH_core.json"

// tracedOverheadCeiling bounds the tracing tax: a trace-enabled gateway run's
// mean submit->commit latency must stay within 5% of the untraced run, or the
// "low-overhead" claim on the obs collector is broken and the suite exits
// non-zero.
const tracedOverheadCeiling = 1.05

// coreBenchRow is one pinned measurement. Unit decides the regression
// direction: "per_sec" rows must not drop below baseline*(1-tolerance), "ms"
// rows must not rise above baseline*(1+tolerance).
type coreBenchRow struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

// coreBench is the BENCH_core.json artifact layout.
type coreBench struct {
	Experiment         string         `json:"experiment"`
	Seed               int64          `json:"seed"`
	Tolerance          float64        `json:"tolerance"`
	GoMaxProcs         int            `json:"gomaxprocs"`
	Rows               []coreBenchRow `json:"rows"`
	TracedOverUntraced float64        `json:"traced_over_untraced_gateway_latency_ratio"`
}

// runCore executes the pinned perf-trajectory suite: signature batch
// verification, certificate-pipeline ingest, executor apply, and the
// wall-clock gateway submit->commit path with tracing off and on. Results are
// written to BENCH_core.json; if a committed baseline exists, every row is
// compared against it and a regression beyond -tolerance exits non-zero. The
// traced gateway run must additionally land within 5% of the untraced one.
func runCore(cfg benchConfig) error {
	fmt.Printf("\n==== Core perf trajectory: verify / pipeline / apply / gateway (tol=%.0f%%) ====\n",
		cfg.tolerance*100)
	out := coreBench{
		Experiment: "core",
		Seed:       cfg.seed,
		Tolerance:  cfg.tolerance,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	verifyRow, err := benchVerify()
	if err != nil {
		return err
	}
	out.Rows = append(out.Rows, verifyRow)
	fmt.Printf("%-26s %14.0f %s  (%s)\n", verifyRow.Name, verifyRow.Value, verifyRow.Unit, verifyRow.Detail)

	pipelineRow, applyRow, err := benchPipelineAndApply(cfg)
	if err != nil {
		return err
	}
	out.Rows = append(out.Rows, pipelineRow, applyRow)
	fmt.Printf("%-26s %14.0f %s  (%s)\n", pipelineRow.Name, pipelineRow.Value, pipelineRow.Unit, pipelineRow.Detail)
	fmt.Printf("%-26s %14.0f %s  (%s)\n", applyRow.Name, applyRow.Value, applyRow.Unit, applyRow.Detail)

	gatewayRows, ratio, err := benchGateway(cfg)
	if err != nil {
		return err
	}
	out.Rows = append(out.Rows, gatewayRows...)
	out.TracedOverUntraced = ratio
	for _, r := range gatewayRows {
		fmt.Printf("%-26s %14.2f %s  (%s)\n", r.Name, r.Value, r.Unit, r.Detail)
	}
	fmt.Printf("traced/untraced gateway latency ratio: %.3f (ceiling %.2f)\n", ratio, tracedOverheadCeiling)

	// Gate against the committed baseline BEFORE overwriting it in the
	// working tree, then write the fresh artifact either way so CI archives
	// what this run actually measured.
	regressions := compareCoreBaseline(out)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(coreBenchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("-> %s\n", coreBenchFile)
	if ratio > tracedOverheadCeiling {
		return fmt.Errorf("tracing overhead gate: traced gateway latency is %.1f%% over untraced (ceiling %.0f%%)",
			(ratio-1)*100, (tracedOverheadCeiling-1)*100)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("%d row(s) regressed beyond %.0f%% tolerance vs committed %s",
			len(regressions), cfg.tolerance*100, coreBenchFile)
	}
	return nil
}

// compareCoreBaseline diffs fresh rows against the committed artifact.
// A missing or unreadable baseline gates nothing (first run); unmatched row
// names are skipped so the row set can evolve without breaking the gate.
func compareCoreBaseline(fresh coreBench) []string {
	data, err := os.ReadFile(coreBenchFile)
	if err != nil {
		return nil
	}
	var base coreBench
	if err := json.Unmarshal(data, &base); err != nil {
		return nil
	}
	byName := make(map[string]coreBenchRow, len(base.Rows))
	for _, r := range base.Rows {
		byName[r.Name] = r
	}
	var regressions []string
	for _, r := range fresh.Rows {
		b, ok := byName[r.Name]
		if !ok || b.Value <= 0 {
			continue
		}
		switch r.Unit {
		case "per_sec":
			if floor := b.Value * (1 - fresh.Tolerance); r.Value < floor {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f/s < floor %.0f/s (baseline %.0f/s)", r.Name, r.Value, floor, b.Value))
			}
		case "ms":
			if ceil := b.Value * (1 + fresh.Tolerance); r.Value > ceil {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.2fms > ceiling %.2fms (baseline %.2fms)", r.Name, r.Value, ceil, b.Value))
			}
		}
	}
	return regressions
}

// benchVerify measures the BatchVerifier over real Ed25519 signatures — the
// protocol's hottest public-key path (2f+1 checks per certificate).
func benchVerify() (coreBenchRow, error) {
	scheme := crypto.Ed25519{}
	const signers, batch = 16, 2048
	pairs := make([]crypto.KeyPair, signers)
	for i := range pairs {
		kp, err := crypto.NewKeyPair(scheme, [32]byte{0x5c}, uint32(i))
		if err != nil {
			return coreBenchRow{}, err
		}
		pairs[i] = kp
	}
	tasks := make([]crypto.VerifyTask, batch)
	for i := range tasks {
		kp := pairs[i%signers]
		msg := []byte(fmt.Sprintf("core-bench-msg-%06d", i))
		sig, err := kp.Sign(msg)
		if err != nil {
			return coreBenchRow{}, err
		}
		tasks[i] = crypto.VerifyTask{Pub: kp.Public, Msg: msg, Sig: sig}
	}
	v := crypto.NewBatchVerifier(scheme, 0)
	v.VerifyAll(tasks) // warm up before timing
	var verified uint64
	start := time.Now()
	for time.Since(start) < 500*time.Millisecond {
		if !v.VerifyAll(tasks) {
			return coreBenchRow{}, fmt.Errorf("core verify bench: valid signature rejected")
		}
		verified += batch
	}
	elapsed := time.Since(start)
	return coreBenchRow{
		Name:   "verify_ed25519_batch",
		Unit:   "per_sec",
		Value:  float64(verified) / elapsed.Seconds(),
		Detail: fmt.Sprintf("%d sigs in %v, %d workers", verified, elapsed.Round(time.Millisecond), v.Workers()),
	}, nil
}

// benchPipelineAndApply records a 4-validator certificate trace in the
// simulator, then times (a) feeding it through a fresh pipelined engine —
// ingest + Bullshark ordering — and (b) a pure ApplyCommit loop over the
// resulting sub-DAGs on a fresh executor. One recording feeds both rows so
// they measure the same workload.
func benchPipelineAndApply(cfg benchConfig) (coreBenchRow, coreBenchRow, error) {
	var none coreBenchRow
	committee, err := hammerhead.NewEqualStakeCommittee(4)
	if err != nil {
		return none, none, err
	}
	engCfg := engine.DefaultConfig()
	engCfg.VerifySignatures = false
	engCfg.LeaderTimeout = 500 * time.Millisecond
	engCfg.ResyncInterval = 200 * time.Millisecond

	var trace []*engine.Certificate
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		Committee: committee,
		Engine:    engCfg,
		Latency:   simnet.Uniform{Base: 30 * time.Millisecond, Jitter: 0.2},
		NewScheduler: func(c *types.Committee, d *dag.DAG) (leader.Scheduler, error) {
			return leader.NewRoundRobin(c, 1), nil
		},
		OnInsert: func(node types.ValidatorID, cert *engine.Certificate) {
			if node == 0 {
				trace = append(trace, (&engine.Message{Kind: engine.KindCertificate, Cert: cert}).Clone().Cert)
			}
		},
		Seed: cfg.seed,
	})
	if err != nil {
		return none, none, err
	}
	// Pinned workload: 20 virtual seconds of 2000 tx/s KV puts, independent
	// of -duration so successive runs compare like with like.
	const virtual = 20 * time.Second
	const load = 2000.0
	interval := time.Duration(float64(time.Second) / load)
	var seq uint64
	var tick func()
	tick = func() {
		if cluster.Sim.Now() >= virtual.Nanoseconds() {
			return
		}
		seq++
		key := []byte(fmt.Sprintf("acct-%05d", seq%10000))
		val := []byte(fmt.Sprintf("balance-%d", seq))
		_ = cluster.SubmitTx(types.ValidatorID(seq%4), types.Transaction{ID: seq, Payload: execution.PutOp(key, val)})
		cluster.Sim.After(interval, tick)
	}
	cluster.Sim.After(interval, tick)
	cluster.Start()
	cluster.Sim.RunFor(virtual)
	if len(trace) == 0 {
		return none, none, fmt.Errorf("core pipeline bench: recorded no certificates")
	}

	// One replay feeds the trace in milliseconds, far below timing noise, so
	// both rows repeat fresh-engine / fresh-executor passes until they have a
	// stable measurement window.
	const minWindow = 500 * time.Millisecond

	// (a) Pipelined ingest: replay the trace through a fresh engine each
	// pass; the first pass's commit sink keeps the sub-DAGs for the apply
	// row.
	var subs []bullshark.CommittedSubDAG
	var txs uint64
	var ingestElapsed time.Duration
	var certsFed uint64
	for pass := 0; ingestElapsed < minWindow; pass++ {
		first := pass == 0
		eng, err := engine.New(engine.Params{
			Config:    engCfg,
			Committee: committee,
			Self:      0,
			Keys:      crypto0(committee),
			Batches:   noBatches{},
			Scheduler: leader.NewRoundRobin(committee, 1),
			DAG:       dag.New(committee),
			Commits: engine.CommitSinkFunc(func(sub bullshark.CommittedSubDAG) {
				if first {
					txs += uint64(sub.TxCount())
					subs = append(subs, sub)
				}
			}),
		})
		if err != nil {
			return none, none, err
		}
		msgs := make([]*engine.Message, len(trace))
		for i, cert := range trace {
			msgs[i] = (&engine.Message{Kind: engine.KindCertificate, Cert: cert}).Clone()
		}
		start := time.Now()
		for _, m := range msgs {
			eng.OnMessage(1, m, 0)
		}
		eng.Flush()
		ingestElapsed += time.Since(start)
		certsFed += uint64(len(trace))
		eng.Close()
		if first && len(subs) == 0 {
			return none, none, fmt.Errorf("core pipeline bench: replay produced no commits")
		}
	}
	pipelineRow := coreBenchRow{
		Name:   "pipeline_cert_ingest",
		Unit:   "per_sec",
		Value:  float64(certsFed) / ingestElapsed.Seconds(),
		Detail: fmt.Sprintf("%d certs -> %d commits per pass, %d certs in %v", len(trace), len(subs), certsFed, ingestElapsed.Round(time.Millisecond)),
	}

	// (b) Pure state-machine apply, fresh executor each pass.
	var applyElapsed time.Duration
	var txsApplied uint64
	var checkpoints uint64
	for applyElapsed < minWindow {
		exec := execution.NewExecutor(execution.NewKVState(), execution.Config{CheckpointInterval: 32})
		start := time.Now()
		for _, sub := range subs {
			exec.ApplyCommit(sub)
		}
		applyElapsed += time.Since(start)
		txsApplied += txs
		checkpoints = exec.Checkpoints()
	}
	applyRow := coreBenchRow{
		Name:   "executor_apply",
		Unit:   "per_sec",
		Value:  float64(txsApplied) / applyElapsed.Seconds(),
		Detail: fmt.Sprintf("%d txs, %d commits per pass in %v total, %d checkpoints", txs, len(subs), applyElapsed.Round(time.Millisecond), checkpoints),
	}
	return pipelineRow, applyRow, nil
}

// benchGateway runs the wall-clock serving path twice — tracing off, then on —
// and reports mean submit->commit latency for each plus their ratio. The
// commit path's latency is dominated by round pacing, which is exactly why it
// is the right place to bound tracing overhead: a collector cheap enough to
// disappear here is cheap enough to leave on.
func benchGateway(cfg benchConfig) ([]coreBenchRow, float64, error) {
	duration := cfg.duration
	if duration > 10*time.Second {
		// Wall-clock runs; two of them at the simulated experiments' 60s
		// default would burn two real minutes without changing the means.
		duration = 10 * time.Second
	}
	run := func(traced bool) (hammerhead.ClientLoadResult, error) {
		s := hammerhead.NewClientLoadScenario(4, 300, duration)
		s.Scheme = "insecure"
		s.Trace = traced
		return hammerhead.RunClientLoad(s)
	}
	untraced, err := run(false)
	if err != nil {
		return nil, 0, err
	}
	traced, err := run(true)
	if err != nil {
		return nil, 0, err
	}
	if traced.TraceChecked == 0 || traced.TraceIncomplete != 0 {
		return nil, 0, fmt.Errorf("core gateway bench: %d of %d traces incomplete",
			traced.TraceIncomplete, traced.TraceChecked)
	}
	uMean := untraced.CommitLatency.Mean
	tMean := traced.CommitLatency.Mean
	if uMean <= 0 {
		return nil, 0, fmt.Errorf("core gateway bench: no untraced commit latency samples")
	}
	rows := []coreBenchRow{
		{
			Name:   "gateway_submit_commit",
			Unit:   "ms",
			Value:  float64(uMean.Microseconds()) / 1000,
			Detail: fmt.Sprintf("untraced: %d committed, p95=%v", untraced.Committed, untraced.CommitLatency.P95),
		},
		{
			Name:   "gateway_submit_commit_traced",
			Unit:   "ms",
			Value:  float64(tMean.Microseconds()) / 1000,
			Detail: fmt.Sprintf("traced: %d committed, %d/%d waterfalls complete", traced.Committed, traced.TraceComplete, traced.TraceChecked),
		},
	}
	return rows, tMean.Seconds() / uMean.Seconds(), nil
}
