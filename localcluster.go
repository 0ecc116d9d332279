package hammerhead

import (
	"fmt"
	"path/filepath"

	"hammerhead/internal/engine"
	"hammerhead/internal/node"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

// LocalClusterOption customizes StartLocalCluster.
type LocalClusterOption func(*localClusterOptions)

type localClusterOptions struct {
	hammerhead  *SchedulerConfig
	walDir      string
	execution   bool
	snapshotDir string
	onCommit    func(id ValidatorID, sub CommittedSubDAG, replayed bool)
}

// WithHammerHead enables reputation scheduling (nil config means the paper's
// evaluation defaults). Without this option the cluster runs the round-robin
// Bullshark baseline.
func WithHammerHead(cfg *SchedulerConfig) LocalClusterOption {
	return func(o *localClusterOptions) {
		if cfg == nil {
			def := DefaultSchedulerConfig()
			cfg = &def
		}
		o.hammerhead = cfg
	}
}

// WithWALDir enables per-node persistence under dir (one WAL per validator).
func WithWALDir(dir string) LocalClusterOption {
	return func(o *localClusterOptions) { o.walDir = dir }
}

// WithExecution enables the execution subsystem on every node: a
// deterministic KV ledger applies the commit stream, checkpoints
// periodically, and snapshot state-sync recovers nodes that fall beyond the
// GC horizon. snapshotDir, when non-empty, persists each validator's
// checkpoints under its own subdirectory (empty keeps them in memory).
func WithExecution(snapshotDir string) LocalClusterOption {
	return func(o *localClusterOptions) {
		o.execution = true
		o.snapshotDir = snapshotDir
	}
}

// WithCommitObserver registers a commit callback across all nodes.
func WithCommitObserver(fn func(id ValidatorID, sub CommittedSubDAG, replayed bool)) LocalClusterOption {
	return func(o *localClusterOptions) { o.onCommit = fn }
}

// LocalCluster is an in-process committee wired over channel transports —
// real goroutines, wall-clock timers and the full protocol stack, one
// binary. Useful for development, tests and the quickstart example.
type LocalCluster struct {
	Committee *Committee
	Nodes     []*Node

	network *transport.ChannelNetwork
	// trans[i] is node i's endpoint, closed with it once started.
	trans []transport.Transport
}

// StartLocalCluster boots an n-validator cluster and returns once all nodes
// run. Callers must Stop it.
func StartLocalCluster(n int, opts ...LocalClusterOption) (*LocalCluster, error) {
	engineConfig := DefaultEngineConfig()
	// Local clusters exchange messages in microseconds; the production
	// leader timeout would only slow fault examples down.
	engineConfig.LeaderTimeout = 1e9 // 1s
	// Real runtimes run the two-stage engine pipeline: certificate ingest
	// returns to message processing while the Bullshark walk orders
	// asynchronously.
	engineConfig.PipelineDepth = engine.DefaultPipelineDepth
	var options localClusterOptions
	for _, opt := range opts {
		opt(&options)
	}

	committee, err := NewEqualStakeCommittee(n)
	if err != nil {
		return nil, err
	}
	var seed [32]byte
	seed[0] = 0x42
	pairs, pubs, err := GenerateKeys("ed25519", seed, n)
	if err != nil {
		return nil, err
	}

	cluster := &LocalCluster{
		Committee: committee,
		network:   transport.NewChannelNetwork(1 << 14),
	}
	for i := 0; i < n; i++ {
		id := types.ValidatorID(i)
		cfg := node.Config{
			Committee:    committee,
			Self:         id,
			Keys:         pairs[i],
			PublicKeys:   pubs,
			Engine:       engineConfig,
			HammerHead:   options.hammerhead,
			ScheduleSeed: 7,
		}
		if options.walDir != "" {
			cfg.WALPath = filepath.Join(options.walDir, fmt.Sprintf("validator-%d.wal", i))
		}
		if options.execution {
			cfg.Execution = true
			if options.snapshotDir != "" {
				cfg.SnapshotDir = filepath.Join(options.snapshotDir, fmt.Sprintf("validator-%d", i))
			}
		}
		if options.onCommit != nil {
			hook := options.onCommit
			cfg.OnCommit = func(sub CommittedSubDAG, replayed bool) { hook(id, sub, replayed) }
		}

		nd, err := node.New(cfg)
		if err != nil {
			cluster.Stop()
			return nil, fmt.Errorf("hammerhead: building node %s: %w", id, err)
		}
		cluster.Nodes = append(cluster.Nodes, nd)
		tr, err := cluster.network.Join(id, nd.HandleMessage)
		if err != nil {
			cluster.Stop()
			return nil, err
		}
		cluster.trans = append(cluster.trans, tr)
	}
	for i, nd := range cluster.Nodes {
		if err := nd.Start(cluster.trans[i]); err != nil {
			cluster.Stop()
			return nil, err
		}
	}
	return cluster, nil
}

// Submit hands a transaction to the given validator's mempool.
func (c *LocalCluster) Submit(to ValidatorID, tx Transaction) error {
	if int(to) >= len(c.Nodes) {
		return fmt.Errorf("hammerhead: no validator %s", to)
	}
	return c.Nodes[to].Submit(tx)
}

// Stop shuts every node down and closes every endpoint.
func (c *LocalCluster) Stop() {
	for _, nd := range c.Nodes {
		_ = nd.Close()
	}
	for _, tr := range c.trans {
		_ = tr.Close()
	}
}
