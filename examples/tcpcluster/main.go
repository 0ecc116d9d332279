// Command tcpcluster runs a 4-validator committee over real TCP sockets on
// localhost — Ed25519 signatures, WAL persistence, metrics over HTTP — the
// deployment shape a downstream operator would run across machines, here in
// one process for demonstration.
package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hammerhead"
	"hammerhead/internal/engine"
	"hammerhead/internal/genesis"
	"hammerhead/internal/node"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcpcluster:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 4
	dir, err := os.MkdirTemp("", "hammerhead-tcpcluster")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Committee with real Ed25519 keys; addresses on loopback.
	var seed [32]byte
	seed[0] = 0xA5
	file, pairs, err := genesis.Generate("ed25519", seed, n, "127.0.0.1", 42100)
	if err != nil {
		return err
	}
	committee, err := file.Committee()
	if err != nil {
		return err
	}
	pubs, err := file.PublicKeys()
	if err != nil {
		return err
	}

	engCfg := engine.DefaultConfig()
	engCfg.MinRoundDelay = 100 * time.Millisecond
	engCfg.LeaderTimeout = 2 * time.Second
	hh := hammerhead.DefaultSchedulerConfig()

	var mu sync.Mutex
	commits := make([]int, n)
	txs := 0
	reg := hammerhead.NewMetricsRegistry()

	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		id := types.ValidatorID(i)
		cfg := node.Config{
			Committee:    committee,
			Self:         id,
			Keys:         pairs[i],
			PublicKeys:   pubs,
			Engine:       engCfg,
			HammerHead:   &hh,
			ScheduleSeed: file.ScheduleSeed,
			WALPath:      filepath.Join(dir, fmt.Sprintf("v%d.wal", i)),
			OnCommit: func(sub hammerhead.CommittedSubDAG, replayed bool) {
				mu.Lock()
				defer mu.Unlock()
				commits[id]++
				if id == 0 {
					txs += sub.TxCount()
				}
			},
		}
		if i == 0 {
			cfg.Metrics = reg
		}
		nd, err := node.New(cfg)
		if err != nil {
			return err
		}
		defer nd.Close()
		// The node holds peer messages that arrive before its Start.
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self:       id,
			ListenAddr: file.Validators[i].Address,
			PeerAddrs:  file.PeerAddrs(id),
			Handler:    nd.HandleMessage,
		})
		if err != nil {
			return fmt.Errorf("binding %s: %w", file.Validators[i].Address, err)
		}
		if err := nd.Start(tr); err != nil {
			return err
		}
		nodes[i] = nd
	}
	fmt.Printf("4 validators listening on 127.0.0.1:42100-42103 (Ed25519, WAL in %s)\n", dir)

	// Metrics endpoint for validator 0, like the paper's Prometheus setup.
	metricsSrv := &http.Server{Addr: "127.0.0.1:42190", Handler: reg}
	go func() { _ = metricsSrv.ListenAndServe() }()
	defer metricsSrv.Close()
	fmt.Println("validator 0 metrics on http://127.0.0.1:42190")

	// Submit transactions and wait for finality.
	for i := 0; i < 60; i++ {
		tx := hammerhead.Transaction{ID: uint64(i + 1), Payload: []byte("increment")}
		if err := nodes[i%n].Submit(tx); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := txs >= 60
		snapshot := append([]int(nil), commits...)
		mu.Unlock()
		if done {
			fmt.Printf("all 60 transactions final; commits per validator: %v\n", snapshot)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out; commits per validator: %v", snapshot)
		}
		time.Sleep(100 * time.Millisecond)
	}

	resp, err := http.Get("http://127.0.0.1:42190/metrics")
	if err == nil {
		defer resp.Body.Close()
		buf := make([]byte, 512)
		m, _ := resp.Body.Read(buf)
		fmt.Printf("\nmetrics sample:\n%s...\n", buf[:m])
	}
	return nil
}
