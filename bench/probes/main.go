//go:build benchprobes

// Command hammerhead-probes times the public functions of each leaf layer in
// isolation, on inputs generated from the seed at the shape of one workload
// (transactions per header, transactions per POST; n=4). It is the only part
// of the benchmark that imports hammerhead/internal/*, which is why it sits
// behind a build tag: the runner builds it with -tags benchprobes and carries
// on without these rows when a refactor has moved what it imports.
//
// One JSON object on standard output: metric name -> value. Every probe runs
// single-threaded for about a quarter of a second and reports the median of
// its timed passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/mempool"
	"hammerhead/internal/merkle"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

const (
	committeeSize = 4
	keySpace      = 10000
	probeFor      = 250 * time.Millisecond
)

func main() {
	seed := flag.Int64("seed", 1, "input seed")
	perHeader := flag.Int("tx-per-header", 125, "transactions per header")
	perPost := flag.Int("batch", 8, "transactions per POST /v1/tx body")
	dir := flag.String("dir", os.TempDir(), "directory for the WAL probe's file")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	p := &probes{rng: rand.New(rand.NewSource(*seed)), perHeader: *perHeader, perPost: *perPost, dir: *dir, out: map[string]float64{}}
	if err := p.run(); err != nil {
		fmt.Fprintln(os.Stderr, "probes:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(p.out); err != nil {
		fmt.Fprintln(os.Stderr, "probes:", err)
		os.Exit(1)
	}
}

type probes struct {
	rng       *rand.Rand
	perHeader int
	perPost   int
	dir       string
	out       map[string]float64
}

// timed calls pass until probeFor has gone by and returns the median seconds
// per pass.
func timed(pass func()) float64 {
	pass() // warm caches and lazily built tables before timing
	var took []float64
	for start := time.Now(); time.Since(start) < probeFor; {
		t0 := time.Now()
		pass()
		took = append(took, time.Since(t0).Seconds())
	}
	sort.Float64s(took)
	return took[len(took)/2]
}

func (p *probes) tx(id uint64) types.Transaction {
	key := []byte(fmt.Sprintf("acct-%d", 100000+p.rng.Intn(keySpace)))
	val := []byte(fmt.Sprintf("%08x/%d/%x", id>>32, uint32(id), p.rng.Uint64()))
	return types.Transaction{ID: id, Payload: execution.PutOp(key, val)}
}

func (p *probes) batch(first uint64) *types.Batch {
	b := &types.Batch{Transactions: make([]types.Transaction, p.perHeader)}
	for i := range b.Transactions {
		b.Transactions[i] = p.tx(first + uint64(i))
	}
	return b
}

func (p *probes) run() error {
	committee, err := types.NewEqualStakeCommittee(committeeSize)
	if err != nil {
		return err
	}
	scheme := crypto.Ed25519{}
	keys := make([]crypto.KeyPair, committeeSize)
	for i := range keys {
		if keys[i], err = crypto.NewKeyPair(scheme, [32]byte{byte(p.rng.Intn(256))}, uint32(i)); err != nil {
			return err
		}
	}

	// crypto: one Ed25519 check, the unit every vote and certificate costs.
	const sigs = 64
	msgs, sigv := make([][]byte, sigs), make([]crypto.Signature, sigs)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("probe-message-%d-%d", i, p.rng.Uint64()))
		if sigv[i], err = keys[i%committeeSize].Sign(msgs[i]); err != nil {
			return err
		}
	}
	p.out["crypto.verify_us_per_sig"] = 1e6 / sigs * timed(func() {
		for i := range msgs {
			if !scheme.Verify(keys[i%committeeSize].Public, msgs[i], sigv[i]) {
				panic("valid signature rejected")
			}
		}
	})

	// A small DAG: rounds of four vertices, each carrying perHeader
	// transactions and pointing at all four parents.
	const rounds = 40
	headers := make([][]*engine.Header, rounds+1)
	var next uint64 = 1 << 32
	for r := 1; r <= rounds; r++ {
		var edges []types.Digest
		for _, parent := range headers[r-1] {
			edges = append(edges, parent.Digest())
		}
		for v := 0; v < committeeSize; v++ {
			h := &engine.Header{Round: types.Round(r), Source: types.ValidatorID(v), Edges: edges, Batch: p.batch(next)}
			next += uint64(p.perHeader)
			d := h.Digest()
			if h.Signature, err = keys[v].Sign(d[:]); err != nil {
				return err
			}
			headers[r] = append(headers[r], h)
		}
	}
	sample := headers[rounds][0]
	cert := &engine.Certificate{Header: *sample}
	for v := 0; v < 3; v++ {
		d := sample.Digest()
		sig, err := keys[v].Sign(d[:])
		if err != nil {
			return err
		}
		cert.Votes = append(cert.Votes, engine.VoteSig{Voter: types.ValidatorID(v), Signature: sig})
	}

	// wire: one header out and back in, as every broadcast does.
	msg := &engine.Message{Kind: engine.KindHeader, Header: sample}
	p.out["wire.header_codec_us"] = 1e6 * timed(func() {
		raw, err := engine.EncodeMessage(msg)
		if err != nil {
			panic(err)
		}
		if _, err := engine.DecodeMessage(raw); err != nil {
			panic(err)
		}
	})

	// storage: a certificate appended (buffered), and a proposal appended
	// and synced, which is what stands between a header and the wire.
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	walPath := filepath.Join(p.dir, fmt.Sprintf("probe-%d.wal", os.Getpid()))
	defer os.Remove(walPath)
	wal, err := storage.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer wal.Close()
	p.out["storage.wal_append_us"] = 1e6 * timed(func() {
		if err := wal.Append(cert); err != nil {
			panic(err)
		}
	})
	p.out["storage.wal_fsync_us"] = 1e6 * timed(func() {
		if err := wal.AppendProposal(sample); err != nil {
			panic(err)
		}
		if err := wal.Sync(); err != nil {
			panic(err)
		}
	})

	// mempool: admit a header's worth through the fair lanes, drain it.
	pool := mempool.NewFair(mempool.FairConfig{Lanes: 4})
	txs := p.batch(next).Transactions
	p.out["mempool.admit_drain_ns_per_tx"] = 1e9 / float64(len(txs)) * timed(func() {
		for i := range txs {
			if err := pool.SubmitClient("bench", txs[i]); err != nil {
				panic(err)
			}
		}
		if b := pool.NextBatch(0, len(txs)); b == nil || b.Len() != len(txs) {
			panic("mempool did not return what it admitted")
		}
	})

	// dag + bullshark: insert the vertices into a fresh DAG and let the
	// committer order them; the two are timed apart inside one pass.
	var subs []bullshark.CommittedSubDAG
	var insertS, orderS []float64
	for start := time.Now(); time.Since(start) < 2*probeFor; {
		d := dag.New(committee)
		committer := bullshark.New(committee, d, leader.NewRoundRobin(committee, 1))
		var ins, ord time.Duration
		subs = subs[:0]
		for r := 1; r <= rounds; r++ {
			for _, h := range headers[r] {
				v := h.Vertex()
				t0 := time.Now()
				if err := d.Insert(v); err != nil {
					return fmt.Errorf("dag insert: %w", err)
				}
				t1 := time.Now()
				subs = append(subs, committer.ProcessVertex(v)...)
				ins += t1.Sub(t0)
				ord += time.Since(t1)
			}
		}
		if len(subs) == 0 {
			return fmt.Errorf("committer ordered nothing over %d rounds", rounds)
		}
		insertS = append(insertS, ins.Seconds()/float64(rounds*committeeSize))
		orderS = append(orderS, ord.Seconds()/float64(len(subs)))
	}
	sort.Float64s(insertS)
	sort.Float64s(orderS)
	p.out["dag.insert_us_per_cert"] = 1e6 * insertS[len(insertS)/2]
	p.out["bullshark.order_us_per_commit"] = 1e6 * orderS[len(orderS)/2]

	// execution: apply those commits to a ledger already holding the key
	// space, Merkle trie included.
	applied := 0
	for _, s := range subs {
		applied += s.TxCount()
	}
	preload := func() *execution.KVState {
		kv := execution.NewKVState()
		for k := 0; k < keySpace; k++ {
			kv.Apply(&types.Transaction{ID: uint64(k + 1), Payload: execution.PutOp([]byte(fmt.Sprintf("acct-%d", 100000+k)), []byte("preloaded"))})
		}
		return kv
	}
	var applyS []float64
	for start := time.Now(); time.Since(start) < 2*probeFor; {
		exec := execution.NewExecutor(preload(), execution.Config{})
		t0 := time.Now()
		for _, s := range subs {
			exec.ApplyCommit(s)
		}
		applyS = append(applyS, time.Since(t0).Seconds()/float64(applied))
	}
	sort.Float64s(applyS)
	p.out["execution.apply_us_per_tx"] = 1e6 * applyS[len(applyS)/2]

	// merkle: prove and verify one key in a trie of the key space's size.
	tree := merkle.New()
	for k := 0; k < keySpace; k++ {
		tree.Insert([]byte(fmt.Sprintf("acct-%d", 100000+k)), []byte("value"), uint64(k+1))
	}
	probeKeys := make([][]byte, 256)
	for i := range probeKeys {
		probeKeys[i] = []byte(fmt.Sprintf("acct-%d", 100000+p.rng.Intn(keySpace)))
	}
	proofs := make([]merkle.Proof, len(probeKeys))
	p.out["merkle.prove_us"] = 1e6 / float64(len(probeKeys)) * timed(func() {
		for i, k := range probeKeys {
			proofs[i] = tree.Prove(k)
		}
	})
	p.out["merkle.verify_us"] = 1e6 / float64(len(probeKeys)) * timed(func() {
		for i, k := range probeKeys {
			if _, _, err := proofs[i].Verify(k); err != nil {
				panic(err)
			}
		}
	})

	// rpc: decoding one POST /v1/tx body, the gateway's first step.
	req := rpcapi.SubmitRequest{Client: "bench"}
	for i := 0; i < p.perPost; i++ {
		t := p.tx(next + uint64(i))
		req.Txs = append(req.Txs, rpcapi.SubmitTx{ID: t.ID, Payload: t.Payload})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	p.out["rpc.submit_decode_us_per_tx"] = 1e6 / float64(p.perPost) * timed(func() {
		var got rpcapi.SubmitRequest
		if err := json.Unmarshal(body, &got); err != nil || len(got.Txs) != p.perPost {
			panic("submit body did not decode")
		}
	})
	return nil
}
