// Command hammerhead-node runs one validator over TCP: the full stack with
// Ed25519 authentication, WAL crash-recovery, HammerHead leader reputation
// and a Prometheus-style /metrics endpoint.
//
//	hammerhead-keygen -n 4 -out ./testnet
//	hammerhead-node -committee ./testnet/committee.json \
//	    -id 0 -key ./testnet/validator-0.key \
//	    -wal ./testnet/v0.wal -metrics-addr 127.0.0.1:9190
//
// Run one process per validator (any mix of machines); each logs commits as
// they happen. -baseline switches leader election to static round-robin.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/genesis"
	"hammerhead/internal/metrics"
	"hammerhead/internal/node"
	"hammerhead/internal/obs"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hammerhead-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hammerhead-node", flag.ContinueOnError)
	committeePath := fs.String("committee", "committee.json", "committee configuration file")
	id := fs.Uint("id", 0, "this validator's ID")
	keyPath := fs.String("key", "", "private key file (from hammerhead-keygen)")
	walPath := fs.String("wal", "", "WAL path for crash-recovery (empty disables persistence)")
	metricsAddr := fs.String("metrics-addr", "", "address for /metrics (empty disables)")
	baseline := fs.Bool("baseline", false, "use static round-robin instead of HammerHead")
	epochCommits := fs.Int("epoch-commits", 10, "commits per leader-reputation schedule")
	engCfg := engine.DefaultConfig()
	minRoundDelay := fs.Duration("min-round-delay", engCfg.MinRoundDelay, "header pacing: the shortest time between a validator's own proposals")
	leaderTimeout := fs.Duration("leader-timeout", engCfg.LeaderTimeout, "anchor-round leader wait")
	pipelineDepth := fs.Int("pipeline-depth", engine.DefaultPipelineDepth, "order-stage queue depth; 0 runs the committer inline on the ingest path")
	mempoolSize := fs.Int("mempool-size", 0, "transaction pool capacity (0 = default 1<<20)")
	rpcAddr := fs.String("rpc-addr", "", "address for the client gateway (HTTP/JSON tx submission, KV reads, commit streaming; empty disables)")
	rpcLanes := fs.Int("rpc-lanes", 0, "fair-admission mempool lanes for gateway clients (<=1 keeps a single lane)")
	execution := fs.Bool("execution", false, "enable the execution subsystem: deterministic KV state machine, checkpoints, snapshot state-sync")
	checkpointInterval := fs.Uint64("checkpoint-interval", 0, "commits between execution checkpoints (0 = default 32; needs -execution)")
	checkpointCerts := fs.Bool("checkpoint-certs", false, "sign and gossip checkpoint tuples into quorum certificates, enabling trustless snapshots, proof-carrying reads and read replicas (needs -execution)")
	snapshotDir := fs.String("snapshot-dir", "", "directory persisting execution checkpoints (empty = in-memory; needs -execution)")
	trace := fs.Bool("trace", false, "record per-transaction commit-path traces, served on GET /v1/trace/{txid} and in the hammerhead_stage_latency_seconds histograms")
	traceSlots := fs.Int("trace-slots", 0, "retained trace capacity, FIFO-evicted (0 = default 1<<16; needs -trace)")
	debugAddr := fs.String("debug-addr", "", "address for the debug surface (net/http/pprof + /debug/runtime) on its OWN listener, never the public RPC mux (empty disables)")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "text", "log format: text|json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	file, err := genesis.Load(*committeePath)
	if err != nil {
		return err
	}
	committee, err := file.Committee()
	if err != nil {
		return err
	}
	self := types.ValidatorID(*id)
	authority, ok := committee.Authority(self)
	if !ok {
		return fmt.Errorf("validator %d not in committee of %d", *id, committee.Size())
	}
	pubs, err := file.PublicKeys()
	if err != nil {
		return err
	}
	scheme, err := crypto.SchemeByName(file.Scheme)
	if err != nil {
		return err
	}
	if *keyPath == "" {
		return fmt.Errorf("-key is required")
	}
	priv, err := genesis.ReadKeyFile(*keyPath)
	if err != nil {
		return err
	}
	keys := crypto.KeyPair{Scheme: scheme, Private: priv, Public: pubs[self]}

	engCfg.MinRoundDelay = *minRoundDelay
	engCfg.LeaderTimeout = *leaderTimeout
	engCfg.PipelineDepth = *pipelineDepth

	var hh *core.Config
	if !*baseline {
		cfg := core.DefaultConfig()
		cfg.EpochCommits = *epochCommits
		hh = &cfg
	}

	reg := metrics.NewRegistry()
	root, err := obs.NewLogger(os.Stdout, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	logger := obs.WithValidator(obs.Component(root, "validator"), uint64(self))
	nd, err := node.New(node.Config{
		Committee:          committee,
		Self:               self,
		Keys:               keys,
		PublicKeys:         pubs,
		Engine:             engCfg,
		HammerHead:         hh,
		ScheduleSeed:       file.ScheduleSeed,
		WALPath:            *walPath,
		MempoolSize:        *mempoolSize,
		MempoolLanes:       *rpcLanes,
		RPCAddr:            *rpcAddr,
		Execution:          *execution,
		CheckpointInterval: *checkpointInterval,
		CheckpointCerts:    *checkpointCerts,
		SnapshotDir:        *snapshotDir,
		Metrics:            reg,
		Trace:              *trace,
		TraceSlots:         *traceSlots,
		DebugAddr:          *debugAddr,
		Logger:             root,
		OnCommit: func(sub bullshark.CommittedSubDAG, replayed bool) {
			if replayed {
				return
			}
			logger.Info("commit",
				"seq", sub.Index,
				"anchor_round", uint64(sub.Anchor.Round),
				"leader", uint64(sub.Anchor.Source),
				"vertices", len(sub.Vertices),
				"txs", sub.TxCount())
		},
	})
	if err != nil {
		return err
	}
	defer nd.Close()
	// Peers deliver from the moment the listener is bound; the node holds
	// their messages until Start has recovered it.
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self:       self,
		ListenAddr: authority.Address,
		PeerAddrs:  file.PeerAddrs(self),
		Handler:    nd.HandleMessage,
	})
	if err != nil {
		return fmt.Errorf("binding %s: %w", authority.Address, err)
	}
	if err := nd.Start(tr); err != nil {
		return err
	}
	return serve(nd, logger, reg, *metricsAddr, self)
}

func serve(nd *node.Node, logger *slog.Logger, reg *metrics.Registry, metricsAddr string, self types.ValidatorID) error {
	logger.Info("validator running", "id", uint64(self))
	if gw := nd.Gateway(); gw != nil {
		logger.Info("client gateway listening (POST /v1/tx, GET /v1/kv/{key}, /v1/commits, /v1/status, /v1/trace/{txid})",
			"addr", gw.Addr())
	}
	if addr := nd.DebugAddr(); addr != "" {
		logger.Info("debug surface listening (/debug/pprof/, /debug/runtime)", "addr", addr)
	}

	if metricsAddr != "" {
		srv := &http.Server{Addr: metricsAddr, Handler: reg}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server failed", "err", err)
			}
		}()
		defer srv.Close()
		logger.Info("metrics listening", "addr", metricsAddr)
	}

	// Periodic status line, plus clean shutdown on SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c := nd.Counters()
			cs := c.Committer
			pv := nd.PreVerifyStats()
			logger.Info("status",
				"round", c.Round,
				"commits", cs.DirectCommits+cs.IndirectCommits,
				"ordered_vertices", cs.OrderedVertices,
				"skipped", cs.SkippedAnchors,
				"timeouts", c.LeaderTimeouts,
				"full_early", c.HeadersFullEarly,
				"pending_tx", nd.Pool().Pending(),
				"preverified", pv.Checked-pv.Dropped,
				"dropped", pv.Dropped)
			if exec := nd.Executor(); exec != nil {
				logger.Info("executor",
					"applied_seq", exec.AppliedSeq(),
					"applied_round", uint64(exec.AppliedRound()),
					"state_root", exec.StateRoot(),
					"queue", exec.QueueDepth(),
					"checkpoints", exec.Checkpoints(),
					"snapshots_installed", c.SnapshotInstalls)
			}
		case s := <-sig:
			logger.Info("shutting down", "signal", s.String())
			return nil
		}
	}
}
