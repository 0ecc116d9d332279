package experiment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/node"
	"hammerhead/internal/obs"
	"hammerhead/internal/replica"
	"hammerhead/internal/transport"
	"hammerhead/internal/types"
	"hammerhead/pkg/client"
	"hammerhead/pkg/rpcapi"
)

// ClientLoadScenario parameterizes the client-gateway experiment: a REAL
// (wall-clock, goroutines, HTTP) in-process cluster serving open-loop load
// through the RPC gateway — the serving path the simulated experiments cannot
// exercise. It measures what a user of the system sees: submit-ack latency,
// submit-to-commit latency over the SSE stream, and read-your-writes against
// the committed KV ledger on every validator.
type ClientLoadScenario struct {
	Name string
	// N is the committee size (channel transport, full protocol stack).
	N int
	// Endpoints, when non-empty, targets an EXISTING deployment's gateways
	// instead of booting an in-process cluster: the same submitters, SSE
	// watcher, drain, KV read-back and resume check run over HTTP
	// (hammerhead-loadgen -targets). Chained-root agreement needs executor
	// access and is skipped (StateRootsCompared = 0); N is ignored.
	Endpoints []string
	// RateTxPerSec is the total offered open-loop load across all clients.
	RateTxPerSec float64
	// Duration is the submission window; the run then drains until every
	// accepted transaction committed (or DrainTimeout passes).
	Duration     time.Duration
	DrainTimeout time.Duration
	// Clients is the number of distinct client identities submitting
	// concurrently, each with its own fair-admission lane key.
	Clients int
	// Lanes is the per-node fair-admission lane count (0 = one per client,
	// capped at 16).
	Lanes int
	// BatchSize is transactions per POST /v1/tx call.
	BatchSize int
	// Keys is each client's key-space size (KV put payloads; every value is
	// unique, so read-back verifies cross-validator agreement per key).
	Keys int
	// Scheme selects the signature scheme ("ed25519" default; tests use
	// "insecure" for speed).
	Scheme string
	// Replicas boots this many non-voting read replicas alongside the
	// self-cluster (checkpoint certification is switched on so they can
	// bootstrap from a certified snapshot). At the end of the run every
	// replica must hold a quorum certificate covering the whole submission
	// window, agree with the validators on the chained root at its certified
	// sequence, and serve proof-carrying reads that verify client-side.
	// Ignored in Endpoints (remote) mode.
	Replicas int
	// Trace switches on commit-path tracing in the cluster nodes and, after
	// the drain, fetches every accepted transaction's waterfall back over
	// GET /v1/trace/{txid} — locating the validator that admitted it (the
	// only one holding the full admitted→applied waterfall), verifying the
	// timestamps are monotonic, and assembling the per-stage latency
	// breakdown in the result. In Endpoints mode the targets must have been
	// started with tracing on, or every fetch reports incomplete.
	Trace bool
}

// NewClientLoadScenario returns a calibrated client-load scenario.
func NewClientLoadScenario(n int, rateTxPerSec float64, duration time.Duration) ClientLoadScenario {
	return ClientLoadScenario{
		Name:         fmt.Sprintf("client-load-n%d-rate%.0f", n, rateTxPerSec),
		N:            n,
		RateTxPerSec: rateTxPerSec,
		Duration:     duration,
		DrainTimeout: 15 * time.Second,
		Clients:      4,
		BatchSize:    8,
		Keys:         256,
		Scheme:       "ed25519",
	}
}

// ClientLoadResult is the outcome of one client-load run.
type ClientLoadResult struct {
	Scenario ClientLoadScenario

	// Admission counters, as observed by the clients.
	Submitted uint64
	Accepted  uint64
	Rejected  uint64
	// Committed counts accepted transactions observed on the commit stream;
	// Commits the stream events carrying them.
	Committed uint64
	Commits   uint64
	// ThroughputTxPerSec is Committed over the submission window.
	ThroughputTxPerSec float64
	// SubmitLatency is the HTTP submit-ack latency; CommitLatency the
	// submit-to-commit-stream latency per transaction.
	SubmitLatency LatencyStats
	CommitLatency LatencyStats
	// KVChecked / KVMismatches: every written key read back from EVERY
	// validator; a mismatch is a value or version disagreeing across
	// validators or a missing key.
	KVChecked    int
	KVMismatches int
	// StateRootsAgree reports chained-root agreement across validators at
	// their lowest common applied sequence (StateRootsCompared validators).
	StateRootsAgree    bool
	StateRootsCompared int
	// ResumeOK reports that a fresh SSE subscription resuming from a
	// mid-stream sequence replayed the tail contiguously.
	ResumeOK bool
	// Replica read tier (Scenario.Replicas > 0): ReplicaChecked counts
	// proof-carrying reads issued against replicas, each verified entirely
	// client-side and compared against a validator's answer; a mismatch is a
	// failed verification, a missing key, or a value disagreement.
	ReplicaChecked    int
	ReplicaMismatches int
	// ReplicaRootsAgree reports chained-root agreement between each replica
	// and a validator at the replica's certified sequence.
	ReplicaRootsAgree bool
	ReplicasCompared  int
	// Drained reports whether every accepted transaction was seen committed
	// within DrainTimeout (false = the drain cut the run short).
	Drained bool
	// Commit-path trace verification (Scenario.Trace): TraceChecked counts
	// accepted transactions whose waterfall was fetched back; TraceComplete
	// those whose admitting validator served a complete, monotonically
	// timestamped admitted→…→applied waterfall; TraceIncomplete the rest
	// (evicted from the ring, or no endpoint held the admitted stage).
	TraceChecked    uint64
	TraceComplete   uint64
	TraceIncomplete uint64
	// StageLatencies breaks the commit path down per lifecycle stage: each
	// entry is the latency from the previous recorded stage to this one,
	// over every complete waterfall, in causal order.
	StageLatencies []StageLatency
}

// StageLatency is one commit-path stage's latency distribution, measured
// from the previous recorded stage of the same transaction's waterfall.
type StageLatency struct {
	Stage string
	Stats LatencyStats
}

// RunClientLoad executes the scenario. Unlike Run (discrete-event simnet),
// this boots real nodes with real gateways and drives them over HTTP.
func RunClientLoad(s ClientLoadScenario) (ClientLoadResult, error) {
	if (s.N < 1 && len(s.Endpoints) == 0) || s.RateTxPerSec <= 0 || s.Duration <= 0 {
		return ClientLoadResult{}, fmt.Errorf("experiment: bad client-load scenario %+v", s)
	}
	if s.Clients < 1 {
		s.Clients = 1
	}
	if s.BatchSize < 1 {
		s.BatchSize = 1
	}
	if s.Keys < 1 {
		s.Keys = 1
	}
	if s.Scheme == "" {
		s.Scheme = "ed25519"
	}
	if s.DrainTimeout <= 0 {
		s.DrainTimeout = 15 * time.Second
	}
	lanes := s.Lanes
	if lanes <= 0 {
		lanes = s.Clients
		if lanes > 16 {
			lanes = 16
		}
	}

	var cluster *clientLoadCluster
	addrs := s.Endpoints
	if len(addrs) == 0 {
		var err error
		cluster, err = newClientLoadCluster(s, lanes)
		if err != nil {
			return ClientLoadResult{}, err
		}
		defer cluster.stop()
		addrs = cluster.addrs
	}

	res := ClientLoadResult{Scenario: s}

	// ---- non-voting read replicas (bootstrap concurrently with the load) ----
	// A certified snapshot only exists after the first checkpointed commits,
	// so Bootstrap retries in the background while the submitters run; the
	// replica verification at the end of the run joins on it.
	var replicas []*replica.Replica
	var repVerifier *client.Verifier
	var repBoot sync.WaitGroup
	repBootErrs := make([]error, 0)
	var repBootMu sync.Mutex
	if cluster != nil && s.Replicas > 0 {
		scheme, err := crypto.SchemeByName(s.Scheme)
		if err != nil {
			return res, err
		}
		repVerifier = &client.Verifier{Committee: cluster.committee, PublicKeys: cluster.pubs, Scheme: scheme}
		bootCtx, bootCancel := context.WithTimeout(context.Background(), s.Duration+2*s.DrainTimeout)
		defer bootCancel()
		for i := 0; i < s.Replicas; i++ {
			rep, err := replica.New(replica.Config{
				Validators: cluster.addrs,
				Verifier:   repVerifier,
				RPCAddr:    "127.0.0.1:0",
			})
			if err != nil {
				return res, err
			}
			replicas = append(replicas, rep)
			defer rep.Close()
			repBoot.Add(1)
			go func(rep *replica.Replica) {
				defer repBoot.Done()
				if err := rep.Bootstrap(bootCtx); err != nil {
					repBootMu.Lock()
					repBootErrs = append(repBootErrs, err)
					repBootMu.Unlock()
					return
				}
				rep.Start()
			}(rep)
		}
	}

	// ---- commit-stream watcher ----
	// pending maps txID -> submit time; the watcher resolves them into
	// commit latencies as events arrive.
	var pending sync.Map
	var mu sync.Mutex
	var commitLatencies []time.Duration
	var lastSeq atomic.Uint64
	var idsTruncated atomic.Bool
	watchClient, err := client.New(client.Config{Endpoints: addrs, ClientID: "watcher"})
	if err != nil {
		return res, err
	}
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		_ = watchClient.StreamCommits(watchCtx, 0, func(ev rpcapi.CommitEvent) error {
			if ev.Seq > lastSeq.Load() {
				lastSeq.Store(ev.Seq)
			}
			if ev.TxCount > len(ev.TxIDs) {
				// The gateway caps per-event ID lists; a jumbo commit means
				// stream accounting can no longer prove every accepted tx
				// committed (the KV read-back still does).
				idsTruncated.Store(true)
			}
			mu.Lock()
			res.Commits++
			for _, id := range ev.TxIDs {
				if t0, ok := pending.LoadAndDelete(id); ok {
					res.Committed++
					commitLatencies = append(commitLatencies, time.Since(t0.(time.Time)))
				}
			}
			mu.Unlock()
			return nil
		})
	}()

	// ---- open-loop submitters ----
	var submitted, accepted, rejected, txSeq atomic.Uint64
	var latMu sync.Mutex
	var submitLatencies []time.Duration
	var traceMu sync.Mutex
	var acceptedIDs []uint64
	keysWritten := make([]map[string]bool, s.Clients)
	interval := time.Duration(float64(time.Second) * float64(s.BatchSize) * float64(s.Clients) / s.RateTxPerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	deadline := time.Now().Add(s.Duration)
	var wg sync.WaitGroup
	for c := 0; c < s.Clients; c++ {
		keysWritten[c] = make(map[string]bool)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.New(client.Config{
				Endpoints: addrs,
				ClientID:  fmt.Sprintf("client-%02d", c),
				Backoff:   10 * time.Millisecond,
			})
			if err != nil {
				return
			}
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for now := range ticker.C {
				if now.After(deadline) {
					return
				}
				txs := make([]rpcapi.SubmitTx, s.BatchSize)
				ids := make([]uint64, s.BatchSize)
				batchKeys := make([]string, s.BatchSize)
				t0 := time.Now()
				for i := range txs {
					id := txSeq.Add(1)
					ids[i] = id
					batchKeys[i] = fmt.Sprintf("c%02d-k%04d", c, int(id)%s.Keys)
					txs[i] = rpcapi.SubmitTx{ID: id, Payload: client.PutPayload([]byte(batchKeys[i]), []byte(fmt.Sprintf("v%d", id)))}
					pending.Store(id, t0)
				}
				submitted.Add(uint64(len(txs)))
				resp, err := cl.SubmitTxs(context.Background(), txs)
				latMu.Lock()
				submitLatencies = append(submitLatencies, time.Since(t0))
				latMu.Unlock()
				accepted.Add(uint64(resp.Accepted))
				rejected.Add(uint64(len(txs) - resp.Accepted))
				// Only keys whose write was ACCEPTED take part in read-back
				// verification; rejected transactions (legal under lane
				// backpressure) never commit and must not be tracked.
				for i, id := range ids {
					if err != nil || containsIndex(resp.Errors, i) {
						pending.Delete(id)
						continue
					}
					keysWritten[c][batchKeys[i]] = true
					if s.Trace {
						traceMu.Lock()
						acceptedIDs = append(acceptedIDs, id)
						traceMu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// ---- drain: wait until every accepted tx was seen committed ----
	drainDeadline := time.Now().Add(s.DrainTimeout)
	res.Drained = true
	for {
		mu.Lock()
		committed := res.Committed
		mu.Unlock()
		if committed >= accepted.Load() {
			break
		}
		if idsTruncated.Load() {
			// Per-event ID lists were capped: the unmatched remainder is not
			// missing, just unaccounted on the stream. The executor catch-up
			// and KV read-back below carry the correctness check.
			break
		}
		if time.Now().After(drainDeadline) {
			res.Drained = false
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	watchCancel()
	<-watcherDone

	res.Submitted = submitted.Load()
	res.Accepted = accepted.Load()
	res.Rejected = rejected.Load()
	res.SubmitLatency = SummarizeLatencies(submitLatencies)
	res.CommitLatency = SummarizeLatencies(commitLatencies)
	res.ThroughputTxPerSec = float64(res.Committed) / s.Duration.Seconds()

	readClient, err := client.New(client.Config{Endpoints: addrs, ClientID: "verifier"})
	if err != nil {
		return res, err
	}

	// The SSE drain above only proves the WATCHED gateway delivered the
	// commits; each validator's executor applies asynchronously. Wait until
	// every executor reaches the observed commit frontier before reading, or
	// a lagging (but healthy) validator would be miscounted as divergence.
	// (The commit sequence IS the executor's applied sequence.)
	catchCtx, catchCancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	for deadline := time.Now().Add(s.DrainTimeout); time.Now().Before(deadline); {
		caughtUp := true
		if cluster != nil {
			for _, nd := range cluster.nodes {
				if nd.Executor().AppliedSeq() < lastSeq.Load() {
					caughtUp = false
					break
				}
			}
		} else {
			for v := range addrs {
				st, err := readClient.StatusAt(catchCtx, v)
				if err != nil || st.AppliedSeq < lastSeq.Load() {
					caughtUp = false
					break
				}
			}
		}
		if caughtUp {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	catchCancel()

	// Fresh budget for the verification reads: the catch-up wait above may
	// legitimately consume most of a DrainTimeout on a slow runner, and an
	// expired context here would misreport every read as divergence.
	ctx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	defer cancel()

	// ---- commit-path trace verification and stage breakdown ----
	if s.Trace {
		verifyTraces(ctx, &res, readClient, len(addrs), acceptedIDs)
	}

	// ---- cross-validator read-back: every written key on every validator ----
	for c := range keysWritten {
		for key := range keysWritten[c] {
			res.KVChecked++
			var ref rpcapi.KVResponse
			for v := range addrs {
				got, err := readClient.GetAt(ctx, v, []byte(key))
				if err != nil || !got.Found {
					res.KVMismatches++
					break
				}
				if v == 0 {
					ref = got
					continue
				}
				if string(got.Value) != string(ref.Value) || got.Version != ref.Version {
					res.KVMismatches++
					break
				}
			}
		}
	}

	// ---- chained-root agreement at the lowest common applied sequence ----
	// Needs executor handles; remote (Endpoints) mode reports Compared = 0.
	res.StateRootsAgree = true
	minSeq := ^uint64(0)
	if cluster != nil {
		for _, nd := range cluster.nodes {
			if seq := nd.Executor().AppliedSeq(); seq < minSeq {
				minSeq = seq
			}
		}
	}
	if cluster != nil && minSeq > 0 && minSeq != ^uint64(0) {
		var ref types.Digest
		for _, nd := range cluster.nodes {
			root, ok := nd.Executor().RootAt(minSeq)
			if !ok {
				continue
			}
			if res.StateRootsCompared == 0 {
				ref = root
			} else if root != ref {
				res.StateRootsAgree = false
			}
			res.StateRootsCompared++
		}
	}

	// ---- replica read tier: certificates, root agreement, verified reads ----
	res.ReplicaRootsAgree = true
	if len(replicas) > 0 {
		repBoot.Wait()
		if len(repBootErrs) > 0 {
			return res, fmt.Errorf("replica bootstrap: %w", repBootErrs[0])
		}
		res.verifyReplicas(cluster, replicas, repVerifier, keysWritten, lastSeq.Load(), s.DrainTimeout)
	}

	// ---- SSE resume from a mid-stream sequence ----
	res.ResumeOK = verifyStreamResume(ctx, readClient, lastSeq.Load())
	return res, nil
}

// verifyReplicas closes the trustless loop at the end of a run: each replica
// must tail and certify past the submission window's commit frontier, agree
// with a validator on the chained root at its certified sequence, and serve
// proof-carrying reads for a sample of the written keys that verify entirely
// client-side and match the validators' values. Submissions stopped before
// this runs, so any state at or beyond the frontier holds identical values.
func (res *ClientLoadResult) verifyReplicas(cluster *clientLoadCluster, replicas []*replica.Replica,
	verifier *client.Verifier, keysWritten []map[string]bool, frontier uint64, timeout time.Duration) {
	// Empty commits keep the DAG and checkpoint cadence running after the
	// load stops, so certificates covering the frontier arrive on their own.
	deadline := time.Now().Add(2 * timeout)
	certified := func() bool {
		for _, rep := range replicas {
			if rep.Err() != nil {
				return true // poisoned: fail fast below
			}
			cert, ok := rep.Certificate()
			if !ok || cert.Meta.CommitSeq < frontier {
				return false
			}
		}
		return true
	}
	for !certified() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	sample := make([]string, 0, 32)
	for c := range keysWritten {
		for key := range keysWritten[c] {
			if len(sample) == cap(sample) {
				break
			}
			sample = append(sample, key)
		}
	}
	valClient, err := client.New(client.Config{Endpoints: cluster.addrs, ClientID: "replica-ref"})
	if err != nil {
		res.ReplicaRootsAgree = false
		return
	}
	for _, rep := range replicas {
		cert, ok := rep.Certificate()
		if rep.Err() != nil || !ok || cert.Meta.CommitSeq < frontier {
			res.ReplicaRootsAgree = false
			continue
		}
		// Chained-root agreement with a validator at the certified sequence.
		agreed := false
		for _, nd := range cluster.nodes {
			valRoot, okV := nd.Executor().RootAt(cert.Meta.CommitSeq)
			repRoot, okR := rep.RootAt(cert.Meta.CommitSeq)
			if okV && okR {
				agreed = valRoot == repRoot
				break
			}
		}
		if !agreed {
			res.ReplicaRootsAgree = false
		}
		res.ReplicasCompared++

		repClient, err := client.New(client.Config{Endpoints: []string{rep.Addr()}, ClientID: "replica-reader"})
		if err != nil {
			res.ReplicaMismatches += len(sample)
			res.ReplicaChecked += len(sample)
			continue
		}
		for _, key := range sample {
			res.ReplicaChecked++
			vr, err := repClient.VerifiedGet(ctx, verifier, []byte(key))
			if err != nil || !vr.Found {
				res.ReplicaMismatches++
				continue
			}
			ref, err := valClient.Get(ctx, []byte(key))
			if err != nil || !ref.Found || string(ref.Value) != string(vr.Value) {
				res.ReplicaMismatches++
			}
		}
	}
}

// verifyTraces fetches every accepted transaction's commit-path waterfall
// back over GET /v1/trace/{txid}. A transaction's FULL waterfall (admitted →
// … → applied, all from one clock) lives only on the validator that admitted
// it, so each ID is tried against every endpoint until one serves a complete
// trace. Incomplete fetches are retried briefly: the applied stage is
// stamped by the executor's asynchronous apply goroutine and can trail the
// commit stream by a beat.
func verifyTraces(ctx context.Context, res *ClientLoadResult, cl *client.Client, endpoints int, ids []uint64) {
	stageSamples := make(map[string][]time.Duration)
	var smu sync.Mutex
	var complete atomic.Uint64
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(id uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			var full rpcapi.TraceResponse
			for attempt := 0; attempt < 5 && !full.Complete && ctx.Err() == nil; attempt++ {
				if attempt > 0 {
					time.Sleep(20 * time.Millisecond)
				}
				for v := 0; v < endpoints; v++ {
					if tr, err := cl.TraceAt(ctx, v, id); err == nil && tr.Complete {
						full = tr
						break
					}
				}
			}
			if !full.Complete {
				return
			}
			complete.Add(1)
			smu.Lock()
			for i := 1; i < len(full.Stages); i++ {
				d := time.Duration(full.Stages[i].TimeNanos - full.Stages[i-1].TimeNanos)
				stageSamples[full.Stages[i].Stage] = append(stageSamples[full.Stages[i].Stage], d)
			}
			smu.Unlock()
		}(id)
	}
	wg.Wait()
	res.TraceChecked = uint64(len(ids))
	res.TraceComplete = complete.Load()
	res.TraceIncomplete = res.TraceChecked - res.TraceComplete
	for _, name := range obs.StageNames() {
		if samples, ok := stageSamples[name]; ok {
			res.StageLatencies = append(res.StageLatencies,
				StageLatency{Stage: name, Stats: SummarizeLatencies(samples)})
		}
	}
}

func containsIndex(errs []rpcapi.SubmitError, idx int) bool {
	for _, e := range errs {
		if e.Index == idx {
			return true
		}
	}
	return false
}

// verifyStreamResume opens a fresh subscription from the middle of the
// committed prefix and checks the replayed tail is contiguous.
func verifyStreamResume(ctx context.Context, cl *client.Client, last uint64) bool {
	if last < 2 {
		return last != 0 // nothing to resume over; 0 commits is a failure anyway
	}
	mid := last / 2
	want := mid + 1
	ok := true
	first := true
	done := fmt.Errorf("resume check complete")
	streamCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := cl.StreamCommits(streamCtx, mid, func(ev rpcapi.CommitEvent) error {
		if first && ev.Seq > want {
			// The resume point aged out of the gateway's retained ring; the
			// gap event (folded in by the client) legally jumps the stream
			// forward to the oldest retained commit. Rewinding below the
			// resume point is never legal.
			want = ev.Seq
		}
		first = false
		if ev.Seq != want {
			ok = false
			return done
		}
		want++
		if ev.Seq >= last {
			return done
		}
		return nil
	})
	if err != done && err != nil && ctx.Err() == nil {
		// The stream broke before reaching `last`.
		if want <= last {
			ok = false
		}
	}
	return ok && want > last
}

// clientLoadCluster is the real-runtime cluster behind RunClientLoad.
type clientLoadCluster struct {
	nodes     []*node.Node
	trans     []transport.Transport // trans[i] is node i's endpoint
	addrs     []string
	committee *types.Committee
	pubs      []crypto.PublicKey
}

func newClientLoadCluster(s ClientLoadScenario, lanes int) (*clientLoadCluster, error) {
	committee, err := types.NewEqualStakeCommittee(s.N)
	if err != nil {
		return nil, err
	}
	scheme, err := crypto.SchemeByName(s.Scheme)
	if err != nil {
		return nil, err
	}
	// The seed StartLocalCluster derives its committee from.
	pairs, pubs, err := crypto.CommitteeKeys(scheme, [32]byte{0x42}, s.N)
	if err != nil {
		return nil, err
	}
	engCfg := engine.DefaultConfig()
	engCfg.LeaderTimeout = time.Second

	// Replicas bootstrap from certified snapshots, so a replica-bearing run
	// switches on quorum checkpoint certification with a tight interval —
	// certificates must form well within the submission window.
	var checkpointInterval uint64
	if s.Replicas > 0 {
		checkpointInterval = 16
	}

	network := transport.NewChannelNetwork(1 << 14)
	cluster := &clientLoadCluster{committee: committee, pubs: pubs}
	for i := 0; i < s.N; i++ {
		id := types.ValidatorID(i)
		nd, err := node.New(node.Config{
			Committee:          committee,
			Self:               id,
			Keys:               pairs[i],
			PublicKeys:         pubs,
			Engine:             engCfg,
			ScheduleSeed:       7,
			CheckpointInterval: checkpointInterval,
			CheckpointCerts:    s.Replicas > 0,
			MempoolLanes:       lanes,
			RPCAddr:            "127.0.0.1:0",
			Trace:              s.Trace,
		})
		if err != nil {
			cluster.stop()
			return nil, err
		}
		cluster.nodes = append(cluster.nodes, nd)
		cluster.addrs = append(cluster.addrs, nd.Gateway().Addr())
		tr, err := network.Join(id, nd.HandleMessage)
		if err != nil {
			cluster.stop()
			return nil, err
		}
		cluster.trans = append(cluster.trans, tr)
	}
	for i, nd := range cluster.nodes {
		if err := nd.Start(cluster.trans[i]); err != nil {
			cluster.stop()
			return nil, err
		}
	}
	return cluster, nil
}

// stop closes every node, then every endpoint (a started node already
// closed its own; a never-started one's reader is released by the node's
// Close first).
func (c *clientLoadCluster) stop() {
	for _, nd := range c.nodes {
		_ = nd.Close()
	}
	for _, tr := range c.trans {
		_ = tr.Close()
	}
}
