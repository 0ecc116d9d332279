// Command quickstart boots a 4-validator HammerHead cluster in one process,
// submits transactions, and prints every sub-DAG as it reaches finality —
// the smallest end-to-end tour of the public API.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"hammerhead"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	var mu sync.Mutex
	committedTxs := 0
	done := make(chan struct{})
	var once sync.Once

	// A 4-validator committee with HammerHead reputation scheduling at the
	// paper's evaluation settings (schedule recomputed every 10 commits).
	// Every node applies commits to a deterministic KV ledger and
	// checkpoints it.
	cluster, err := hammerhead.StartLocalCluster(4,
		hammerhead.WithHammerHead(nil),
		hammerhead.WithCommitObserver(func(id hammerhead.ValidatorID, sub hammerhead.CommittedSubDAG, replayed bool) {
			if id != 0 || replayed {
				return // print each commit once, from validator 0's view
			}
			mu.Lock()
			defer mu.Unlock()
			committedTxs += sub.TxCount()
			fmt.Printf("commit #%d: anchor round %d led by %s, %d vertices, %d txs (total %d)\n",
				sub.Index, sub.Anchor.Round, sub.Anchor.Source, len(sub.Vertices), sub.TxCount(), committedTxs)
			if committedTxs >= 100 {
				once.Do(func() { close(done) })
			}
		}),
	)
	if err != nil {
		return err
	}
	defer cluster.Stop()

	fmt.Printf("started %d validators (quorum = %d stake)\n",
		cluster.Committee.Size(), cluster.Committee.QuorumThreshold())

	// Submit 100 KV writes round-robin across the committee: the executor
	// parses each payload as a put into the replicated ledger.
	for i := 0; i < 100; i++ {
		tx := hammerhead.Transaction{
			ID:      uint64(i + 1),
			Payload: hammerhead.PutOp([]byte(fmt.Sprintf("account-%d", i%10)), []byte(fmt.Sprintf("balance-%d", i))),
		}
		if err := cluster.Submit(hammerhead.ValidatorID(i%4), tx); err != nil {
			return err
		}
	}

	select {
	case <-done:
		fmt.Println("all 100 transactions reached finality")
	case <-time.After(30 * time.Second):
		return fmt.Errorf("timed out waiting for finality")
	}

	// Every validator's executor converges on the same ledger: compare their
	// chained state roots at the lowest commonly-applied commit.
	minSeq := ^uint64(0)
	for _, nd := range cluster.Nodes {
		if seq := nd.Executor().AppliedSeq(); seq < minSeq {
			minSeq = seq
		}
	}
	for id, nd := range cluster.Nodes {
		if root, ok := nd.Executor().RootAt(minSeq); ok {
			fmt.Printf("validator %d: state root %s at commit %d\n", id, root, minSeq)
		}
	}
	return nil
}
