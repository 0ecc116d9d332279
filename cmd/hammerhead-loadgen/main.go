// Command hammerhead-loadgen produces open-loop client load against
// validator RPC gateways and reports admission, latency and throughput — the
// serving-layer counterpart of hammerhead-bench's simulated experiments. Like
// a testbed load generator, it makes the client-facing surface a repeatable
// experiment instead of a demo.
//
// Both modes share one measurement harness (experiment.RunClientLoad):
//
//	hammerhead-loadgen -selfcluster 4 -rate 500 -duration 10s
//	  boots an in-process 4-validator cluster (channel transport, execution
//	  on, gateways on loopback), pushes load through HTTP, then verifies
//	  commits happened, every written key reads back identically from every
//	  validator, chained state roots agree, and the SSE stream resumes from a
//	  mid-stream sequence. Exits non-zero if any check fails — the CI smoke.
//	  With -replicas N it additionally boots N non-voting read replicas that
//	  bootstrap from certified snapshots, tail and re-execute the commit
//	  stream, and must end the run serving proof-carrying reads that verify
//	  client-side and chained roots that match the validators'.
//
//	hammerhead-loadgen -targets 10.0.0.1:9401,10.0.0.2:9401 -rate 2000
//	  drives real gateways (see hammerhead-node -rpc-addr): same submitters,
//	  SSE-matched submit->commit latency, KV read-back across the targets and
//	  resume check; chained-root agreement needs in-process executor access
//	  and is skipped.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hammerhead/internal/experiment"
	"hammerhead/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hammerhead-loadgen:", err)
		os.Exit(1)
	}
}

// options is a parsed command line.
type options struct {
	scenario            experiment.ClientLoadScenario
	assert              bool // selfcluster only
	logLevel, logFormat string
}

// parseFlags parses and checks a command line without booting or dialling
// anything.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("hammerhead-loadgen", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated gateway addresses (host:port); mutually exclusive with -selfcluster")
	selfCluster := fs.Int("selfcluster", 0, "boot an in-process cluster of this size and load it (CI smoke; implies verification)")
	rate := fs.Float64("rate", 500, "total offered load, tx/s (open loop)")
	duration := fs.Duration("duration", 10*time.Second, "submission window")
	clients := fs.Int("clients", 4, "concurrent client identities (fair-admission lane keys)")
	batch := fs.Int("batch", 8, "transactions per submit call")
	keys := fs.Int("keys", 1024, "per-client KV key-space size")
	lanes := fs.Int("lanes", 0, "selfcluster: mempool admission lanes per node (0 = one per client)")
	replicas := fs.Int("replicas", 0, "selfcluster: boot this many non-voting read replicas (enables checkpoint certificates; verified reads + root agreement asserted)")
	scheme := fs.String("scheme", "ed25519", "selfcluster: signature scheme (insecure speeds up CI)")
	assert := fs.Bool("assert", true, "selfcluster: exit non-zero unless commits > 0, KV reads agree, roots agree, and SSE resume works")
	trace := fs.Bool("trace", false, "selfcluster: enable commit-path tracing on every node, fetch each accepted tx's waterfall over /v1/trace/{txid}, and report per-stage latency breakdown")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "text", "log format: text|json")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *selfCluster > 0 && *targets != "" {
		return options{}, fmt.Errorf("-selfcluster and -targets are mutually exclusive")
	}
	if *selfCluster <= 0 && *targets == "" {
		return options{}, fmt.Errorf("one of -targets or -selfcluster is required")
	}
	if *replicas > 0 && *targets != "" {
		return options{}, fmt.Errorf("-replicas requires -selfcluster")
	}
	s := experiment.NewClientLoadScenario(*selfCluster, *rate, *duration)
	s.Clients = *clients
	s.BatchSize = *batch
	s.Keys = *keys
	s.Lanes = *lanes
	s.Scheme = *scheme
	s.Replicas = *replicas
	s.Trace = *trace
	if *targets != "" {
		for _, ep := range strings.Split(*targets, ",") {
			s.Endpoints = append(s.Endpoints, strings.TrimSpace(ep))
		}
	}
	return options{scenario: s, assert: *assert && *selfCluster > 0, logLevel: *logLevel, logFormat: *logFormat}, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	root, err := obs.NewLogger(os.Stdout, o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	logger := obs.Component(root, "loadgen")
	s := o.scenario
	if len(s.Endpoints) > 0 {
		logger.Info("driving targets",
			"endpoints", s.Endpoints, "rate", s.RateTxPerSec, "duration", s.Duration, "clients", s.Clients, "batch", s.BatchSize, "trace", s.Trace)
	} else {
		logger.Info("booting self-cluster",
			"n", s.N, "rate", s.RateTxPerSec, "duration", s.Duration, "clients", s.Clients, "batch", s.BatchSize, "scheme", s.Scheme, "trace", s.Trace)
	}

	res, err := experiment.RunClientLoad(s)
	if err != nil {
		return err
	}
	printClientLoad(res)
	if o.assert {
		switch {
		case res.Commits == 0 || res.Committed == 0:
			return fmt.Errorf("FAIL: no commits observed")
		case !res.Drained:
			return fmt.Errorf("FAIL: %d accepted transactions never committed", res.Accepted-res.Committed)
		case res.KVMismatches != 0:
			return fmt.Errorf("FAIL: %d of %d KV read-backs disagreed across validators", res.KVMismatches, res.KVChecked)
		case !res.StateRootsAgree || res.StateRootsCompared < 2:
			return fmt.Errorf("FAIL: chained state roots disagree (compared %d)", res.StateRootsCompared)
		case !res.ResumeOK:
			return fmt.Errorf("FAIL: SSE resume from mid-stream sequence broke")
		case s.Replicas > 0 && res.ReplicasCompared < s.Replicas:
			return fmt.Errorf("FAIL: only %d of %d replicas certified past the commit frontier", res.ReplicasCompared, s.Replicas)
		case s.Replicas > 0 && !res.ReplicaRootsAgree:
			return fmt.Errorf("FAIL: replica chained roots disagree with the validators")
		case s.Replicas > 0 && (res.ReplicaChecked == 0 || res.ReplicaMismatches != 0):
			return fmt.Errorf("FAIL: %d of %d replica verified reads failed", res.ReplicaMismatches, res.ReplicaChecked)
		case s.Trace && res.TraceChecked == 0:
			return fmt.Errorf("FAIL: tracing enabled but no accepted transactions were trace-checked")
		case s.Trace && res.TraceIncomplete != 0:
			return fmt.Errorf("FAIL: %d of %d accepted transactions lack a complete monotonic commit-path trace", res.TraceIncomplete, res.TraceChecked)
		}
		if s.Replicas > 0 {
			fmt.Println("PASS: commits observed, KV agrees on every validator, state roots agree, SSE resume OK, replica verified reads OK")
		} else {
			fmt.Println("PASS: commits observed, KV agrees on every validator, state roots agree, SSE resume OK")
		}
	}
	return nil
}

func printClientLoad(res experiment.ClientLoadResult) {
	fmt.Printf("submitted=%d accepted=%d rejected=%d committed=%d commits=%d\n",
		res.Submitted, res.Accepted, res.Rejected, res.Committed, res.Commits)
	fmt.Printf("throughput=%.0f tx/s (committed over the submission window)\n", res.ThroughputTxPerSec)
	fmt.Printf("submit-ack latency:   mean=%-10v p50=%-10v p95=%v\n",
		res.SubmitLatency.Mean, res.SubmitLatency.P50, res.SubmitLatency.P95)
	fmt.Printf("submit->commit (SSE): mean=%-10v p50=%-10v p95=%v\n",
		res.CommitLatency.Mean, res.CommitLatency.P50, res.CommitLatency.P95)
	if len(res.Scenario.Endpoints) > 0 {
		fmt.Printf("kv-readback=%d/%d sse_resume=%v drained=%v (root agreement needs -selfcluster)\n",
			res.KVChecked-res.KVMismatches, res.KVChecked, res.ResumeOK, res.Drained)
		return
	}
	fmt.Printf("kv-readback=%d/%d state_roots_agree=%v (compared %d) sse_resume=%v drained=%v\n",
		res.KVChecked-res.KVMismatches, res.KVChecked, res.StateRootsAgree, res.StateRootsCompared, res.ResumeOK, res.Drained)
	if res.Scenario.Replicas > 0 {
		fmt.Printf("replicas=%d certified, verified-reads=%d/%d replica_roots_agree=%v\n",
			res.ReplicasCompared, res.ReplicaChecked-res.ReplicaMismatches, res.ReplicaChecked, res.ReplicaRootsAgree)
	}
	printStageBreakdown(res)
}

// printStageBreakdown renders the commit-path waterfall assembled from
// GET /v1/trace/{txid}: for each stage transition, the distribution of time
// spent reaching that stage from the previous one across all fully-traced
// transactions.
func printStageBreakdown(res experiment.ClientLoadResult) {
	if res.TraceChecked == 0 {
		return
	}
	fmt.Printf("traces: complete=%d/%d\n", res.TraceComplete, res.TraceChecked)
	if len(res.StageLatencies) == 0 {
		return
	}
	fmt.Println("stage breakdown (time from previous stage):")
	for _, sl := range res.StageLatencies {
		fmt.Printf("  %-12s p50=%-12v p95=%-12v p99=%-12v max=%v\n",
			sl.Stage, sl.Stats.P50, sl.Stats.P95, sl.Stats.P99, sl.Stats.Max)
	}
}
