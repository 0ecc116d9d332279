package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hammerhead"
	"hammerhead/pkg/client"
)

// runOptions are the knobs of one run.
type runOptions struct {
	seed    int64
	seconds int
	traced  bool
	scheme  string // "ed25519"; the smoke test uses "insecure"
	simN    int    // sim-faults committee size; the smoke test shrinks it
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Invalid is set when the run did not measure the system alone: the
	// generator fell behind its schedule, or the box made a leader time out.
	// Its numbers are reported, and -compare and the all-workload mode refuse
	// them.
	Invalid bool
	// Notes are check failures and run-quality flags, for the human report.
	Notes []string
	// Samples are the sizes of the sets the percentiles were read from.
	Samples map[string]int
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// fail records a broken output check: the run is not correct.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
}

// invalid records that the run's numbers are not the system's own.
func (r *result) invalid(format string, args ...any) {
	r.Invalid = true
	r.Notes = append(r.Notes, "INVALID RUN: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// seedHex expands the run seed into the 32-byte cluster seed
// hammerhead-keygen takes.
func seedHex(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b [32]byte
	rng.Read(b[:])
	return hex.EncodeToString(b[:])
}

// verifierFor builds the client-side trust anchor from the committee file
// alone, through the root facade: the public keys and stakes a proof-carrying
// read is checked against.
func verifierFor(committeePath string) (*client.Verifier, error) {
	raw, err := os.ReadFile(committeePath)
	if err != nil {
		return nil, err
	}
	var file struct {
		Scheme     string `json:"scheme"`
		Validators []struct {
			Name      string `json:"name"`
			Stake     uint64 `json:"stake"`
			Address   string `json:"address"`
			PublicKey string `json:"public_key"`
		} `json:"validators"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", committeePath, err)
	}
	// GenerateKeys is the facade's way to name a signature scheme; the keys
	// it derives are discarded and replaced by the committee file's.
	pairs, pubs, err := hammerhead.GenerateKeys(file.Scheme, [32]byte{}, len(file.Validators))
	if err != nil {
		return nil, err
	}
	authorities := make([]hammerhead.Authority, len(file.Validators))
	for i, v := range file.Validators {
		pub, err := hex.DecodeString(v.PublicKey)
		if err != nil {
			return nil, fmt.Errorf("%s: validator %d public key: %w", committeePath, i, err)
		}
		pubs[i] = pub
		authorities[i] = hammerhead.Authority{
			ID: hammerhead.ValidatorID(i), Name: v.Name, Stake: hammerhead.Stake(v.Stake),
			PublicKey: pub, Address: v.Address,
		}
	}
	committee, err := hammerhead.NewCommittee(authorities)
	if err != nil {
		return nil, err
	}
	return &client.Verifier{Committee: committee, PublicKeys: pubs, Scheme: pairs[0].Scheme}, nil
}

// served is a cluster that finished set-up: processes up, commit stream
// followed, first transaction committed, preload applied, replica serving.
type served struct {
	*cluster
	stream   *commitStream
	verifier *client.Verifier
	batches  []*batch // everything written so far, for read checks
	setup    time.Duration
}

func (s *served) stop() {
	if s.stream != nil {
		s.stream.close()
	}
	s.cluster.stop()
}

// bringUp performs one full set-up and times it from the first process
// spawned to the system being ready for the workload.
func bringUp(e env, w workload, opt runOptions, dir string, rng *rand.Rand, rep int) (_ *served, err error) {
	cfg := clusterConfig{scheme: opt.scheme, seedHex: seedHex(opt.seed), traced: opt.traced, nodeFlags: w.NodeFlags}
	if opt.traced {
		// Room for every transaction of the run: the default 65536 slots
		// would evict the window's first transactions at 16000 tx/s.
		cfg.traceSlots = 1 << 19
	}
	c, err := startCluster(e, dir, cfg)
	if err != nil {
		return nil, err
	}
	s := &served{cluster: c}
	defer func() {
		if err != nil {
			s.stop()
			s.keepLogs(w.Name)
		}
	}()
	if s.verifier, err = verifierFor(c.committee); err != nil {
		return nil, err
	}
	s.stream = followCommits(c.clients[0])
	select {
	case <-s.stream.first:
	case <-time.After(15 * time.Second):
		return nil, fmt.Errorf("no commit on validator 0's stream within 15s of start")
	}

	role := fmt.Sprintf("setup-%d", rep)
	if err := s.awaitEveryValidator(newBatch(rng, idPrefix(opt.seed, w.Name, role), 4*64, false)); err != nil {
		return nil, err
	}
	var pre *batch
	if w.Preload {
		pre = newBatch(rng, idPrefix(opt.seed, w.Name, role+"-preload"), keySpace, true)
		if err := s.submitAll(pre, 500); err != nil {
			return nil, err
		}
	}
	if w.Replica {
		if err := c.startReplica(); err != nil {
			return nil, err
		}
	}
	if pre != nil {
		if err := s.awaitReadable(pre); err != nil {
			return nil, err
		}
	}
	s.setup = time.Since(c.spawned)
	return s, c.dead()
}

// awaitEveryValidator submits one probe transaction to each validator and
// repeats, with fresh IDs, until every validator has had one committed. A
// validator's first headers can fail to gather votes while peer links are
// still being dialled, and a transaction in such a header is dropped for
// good; only once each validator has committed something are the following
// transactions owed a commit.
func (s *served) awaitEveryValidator(probe *batch) error {
	s.stream.register(probe)
	s.batches = append(s.batches, probe)
	ctx := context.Background()
	var confirmed [committeeSize]bool
	owner := make([]int, 0, len(probe.keys))
	deadline := time.Now().Add(15 * time.Second)
	for {
		for v := 0; v < committeeSize; v++ {
			if confirmed[v] || len(owner) == len(probe.keys) {
				continue
			}
			i := len(owner)
			owner = append(owner, v)
			if resp, err := s.clients[v].SubmitTxs(ctx, probe.txs(i, 1)); err != nil || resp.Accepted != 1 {
				return fmt.Errorf("set-up probe on validator %d: accepted %d: %v", v, resp.Accepted, err)
			}
		}
		for wait := 0; wait < 50; wait++ {
			s.stream.mu.RLock()
			for i, v := range owner {
				confirmed[v] = confirmed[v] || probe.seen[i] != 0
			}
			s.stream.mu.RUnlock()
			if confirmed == [committeeSize]bool{true, true, true, true} {
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: not every validator committed a probe transaction within 15s (%v)", confirmed)
		}
	}
}

// submitAll posts a whole batch in requests of size per and waits until the
// commit stream has shown every transaction.
func (s *served) submitAll(b *batch, per int) error {
	s.stream.register(b)
	s.batches = append(s.batches, b)
	ctx := context.Background()
	for first := 0; first < len(b.keys); first += per {
		n := min(per, len(b.keys)-first)
		resp, err := s.clients[(first/per)%committeeSize].SubmitTxs(ctx, b.txs(first, n))
		if err != nil || resp.Accepted != n {
			return fmt.Errorf("set-up submit: accepted %d of %d: %v", resp.Accepted, n, err)
		}
	}
	if m := s.stream.drain(b, func(int) bool { return true }, 15*time.Second); m > 0 {
		return fmt.Errorf("set-up: %d of %d transactions not committed within 15s", m, len(b.keys))
	}
	return nil
}

// awaitReadable waits until every endpoint serves the whole preload to a
// verified read. Those are answered from the latest certified checkpoint,
// which trails the commit stream by up to a checkpoint interval; a checkpoint
// that holds the preload's last committed write holds all of it.
func (s *served) awaitReadable(pre *batch) error {
	s.stream.mu.RLock()
	last := 0
	for i, at := range pre.seen {
		if at > pre.seen[last] {
			last = i
		}
	}
	s.stream.mu.RUnlock()
	key := keyOf(int(pre.keys[last]))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, cl := range s.clients {
		for {
			r, err := cl.VerifiedGetAt(ctx, 0, s.verifier, key)
			if err == nil && r.Found && string(r.Value) == string(pre.value(last)) {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("set-up: endpoint %d did not serve the preload within 15s: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// edge is what the sampler reads at a window boundary.
type edge struct {
	at  time.Time
	cpu float64 // CPU seconds summed over the system's processes
}

func (c *cluster) snapshot() (edge, error) {
	e := edge{at: time.Now()}
	for _, p := range c.procs() {
		s, err := cpuSeconds(p.pid())
		if err != nil {
			return e, fmt.Errorf("%s: %w", p.name, err)
		}
		e.cpu += s
	}
	return e, nil
}

// runServe executes one serve-* run: set-up (repeated), warm-up, measured
// window, drain, output checks.
func runServe(e env, w workload, opt runOptions) (*result, error) {
	res := newResult()
	if err := e.buildSystem(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.seed))
	base := filepath.Join(e.buildDir(), "run", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(base)

	// Set-up, several times over; the last cluster carries the run. The
	// traced run reports no set-up time and sets up once.
	repeats := setupRepeats
	if opt.traced {
		repeats = 1
	}
	var setups []float64
	var s *served
	for rep := 0; rep < repeats; rep++ {
		if s != nil {
			s.stop()
		}
		var err error
		if s, err = bringUp(e, w, opt, filepath.Join(base, fmt.Sprintf("setup%d", rep)), rng, rep); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	defer s.stop()
	keep := func() { s.keepLogs(w.Name) }
	res.Metrics["setup_s"] = median(setups)
	res.Samples["setup_s"] = len(setups)
	res.note("set-up times %.3f s", setups)

	warm := warmup(opt.seconds)
	window := time.Duration(opt.seconds) * time.Second
	plainEvery := 0
	if opt.traced {
		plainEvery = 8
	}
	ops, nTx := buildSchedule(w, warm+window, rng, w.Replica, plainEvery)
	load := newBatch(rng, idPrefix(opt.seed, w.Name, "load"), nTx, false)
	s.stream.register(load)
	s.batches = append(s.batches, load)
	check := func(key int, value []byte, found bool) error { return checkValue(s.batches, key, value, found) }

	start := time.Now().Add(50 * time.Millisecond)
	from, to := start.Add(warm), start.Add(warm+window)
	s.stream.openWindow(from, to)
	var layers *layerCollector
	if opt.traced {
		layers = startLayerCollector(s, from, to)
	}
	type edges struct {
		span [2]edge
		err  error
	}
	sampled := make(chan edges, 1)
	go func() {
		var e edges
		time.Sleep(time.Until(from))
		if e.span[0], e.err = s.snapshot(); e.err == nil {
			time.Sleep(time.Until(to))
			e.span[1], e.err = s.snapshot()
		}
		sampled <- e
	}()
	issue(s.cluster, s.verifier, load, ops, start, check)
	accepted := acceptedIndex(ops, nTx)
	lost := s.stream.drain(load, accepted, drainFor)

	got := <-sampled
	if got.err != nil {
		keep()
		return nil, fmt.Errorf("reading /proc at the window edge: %w", got.err)
	}
	span := got.span
	if err := s.dead(); err != nil {
		keep()
		return nil, err
	}
	scoreOps(res, s.stream, ops, load, start, warm, window, lost)
	tx := float64(s.stream.committedInWindow())
	res.Metrics["throughput_tx_s"] = s.stream.committedPerSecond()
	if res.Metrics["throughput_tx_s"] == 0 {
		keep()
		return nil, fmt.Errorf("fewer than two commit events inside the window")
	}
	res.Metrics["system.cpu_us_per_tx"] = (span[1].cpu - span[0].cpu) * 1e6 / tx
	for _, p := range s.procs() {
		mb, err := peakRSSMB(p.pid())
		if err != nil {
			keep()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		res.Metrics["peak_rss_mb"] += mb
	}

	if layers != nil {
		layers.finish(res, w, opt, ops, load, warm, window)
	}
	checkOutputs(res, s, load, accepted, rng)
	checkNodeLogs(res, s.cluster)
	if opt.traced {
		res.Metrics["obs.traced_commit_p50_ms"] = res.Metrics["commit_p50_ms"]
	}
	if !res.Correct || res.Failed > 0 {
		keep()
	}
	return res, nil
}

// drainFor is how long after the schedule's end an acknowledged transaction
// may take to show on the commit stream before it counts as lost.
const drainFor = 5 * time.Second

// scoreOps turns the schedule's outcomes into the client-side metrics.
// Operations are requests: a POST fails when it errors, is refused, or any of
// its transactions is missing from the commit stream drainFor after the
// schedule ends; a read fails when it errors, fails verification or returns
// bytes the generator never wrote.
func scoreOps(res *result, st *commitStream, ops []op, load *batch, start time.Time, warm, window time.Duration, lost int) {
	var ack, late, readV, readP, all []float64
	// Commit latency per transaction (commit event seen - POST due), grouped
	// by the second of the window the POST was due in.
	perSecond := make([][]float64, int(window/time.Second))
	var lostBy [committeeSize]int
	rejected, posts := 0, 0
	origin := start.UnixNano()
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i := range ops {
		o := &ops[i]
		measured := o.due >= warm && o.due < warm+window
		res.Attempted++
		failed := o.err != nil
		if o.kind == opPost && o.err == nil {
			for t := o.first; t < o.first+o.n; t++ {
				seen := load.seen[t]
				if seen == 0 {
					failed = true
					lostBy[o.target]++
				} else if measured {
					d := float64(seen-origin-int64(o.due)) / 1e6
					all = append(all, d)
					sec := int((o.due - warm) / time.Second)
					perSecond[sec] = append(perSecond[sec], d)
				}
			}
		}
		if failed {
			res.Failed++
			switch {
			case o.err == nil || len(res.Notes) > 8:
			case o.kind == opPost:
				res.note("failed POST due at +%v: %v", o.due, o.err)
			default:
				res.fail("read of %s due at +%v: %v", keyOf(o.key), o.due, o.err)
			}
		}
		if !measured {
			continue
		}
		late = append(late, ms(o.late))
		switch o.kind {
		case opPost:
			posts++
			if o.accepted < o.n {
				rejected++
			}
			ack = append(ack, ms(o.done))
		case opReadVerified:
			if o.err == nil {
				readV = append(readV, ms(o.done))
			}
		case opReadPlain:
			if o.err == nil {
				readP = append(readP, ms(o.done))
			}
		}
	}
	// The gated percentiles are the median over the window's seconds of each
	// second's percentile: a stall of the host inside one second moves that
	// second, not the run. client.commit_p99_ms is over the whole window.
	var p50s, p95s []float64
	for _, second := range perSecond {
		if len(second) > 0 {
			sort.Float64s(second)
			p50s = append(p50s, percentile(second, 0.50))
			p95s = append(p95s, percentile(second, 0.95))
		}
	}
	sort.Float64s(all)
	sort.Float64s(ack)
	sort.Float64s(late)
	sort.Float64s(readV)
	sort.Float64s(readP)
	m := res.Metrics
	m["commit_p50_ms"] = median(p50s)
	m["commit_p95_ms"] = median(p95s)
	m["client.commit_p99_ms"] = percentile(all, 0.99)
	res.Samples["commit_ms"] = len(all)
	res.Samples["commit_seconds"] = len(p50s)
	m["rpc.submit_ack_p50_ms"] = percentile(ack, 0.50)
	m["rpc.submit_ack_p95_ms"] = percentile(ack, 0.95)
	res.Samples["submit_ack_ms"] = len(ack)
	if posts > 0 {
		m["rpc.rejected_share"] = float64(rejected) / float64(posts)
	}
	m["client.read_p50_ms"] = percentile(readV, 0.50)
	m["client.read_p95_ms"] = percentile(readV, 0.95)
	res.Samples["read_ms"] = len(readV)
	if len(readP) > 0 {
		m["rpc.read_plain_p50_ms"] = percentile(readP, 0.50)
		m["merkle.proof_overhead_p50_ms"] = m["client.read_p50_ms"] - m["rpc.read_plain_p50_ms"]
	}
	m["loadgen.late_p95_ms"] = percentile(late, 0.95)
	// Achieved rate: the schedule's planned length over the time it took to
	// send. A generator that falls behind sends its last request late.
	last := ops[len(ops)-1]
	m["loadgen.achieved_rate_share"] = last.due.Seconds() / (last.due + max(last.late, 0)).Seconds()
	if m["loadgen.late_p95_ms"] > 5 || m["loadgen.achieved_rate_share"] < 0.98 {
		m["run.generator_bound"] = 1
		res.invalid("GENERATOR-BOUND: late p95 %.2f ms, achieved rate share %.3f: latencies include the generator's own queue",
			m["loadgen.late_p95_ms"], m["loadgen.achieved_rate_share"])
	}

	if lost > 0 {
		res.fail("%d acknowledged transactions never appeared on the commit stream (by admitting validator: %v)", lost, lostBy)
	}
	if st.gaps > 0 {
		res.fail("commit stream sequence was not contiguous (%d breaks)", st.gaps)
	}
	if st.miscounted > 0 {
		res.fail("%d commit events carried a tx_count that disagrees with their tx_ids", st.miscounted)
	}
	if st.foreign > 0 {
		res.fail("%d committed transaction IDs were never submitted", st.foreign)
	}
	if load.dup > 0 {
		res.fail("%d transactions were committed twice", load.dup)
	}
	if st.unmatched > 0 {
		res.note("%d committed transactions sat behind a capped tx_ids list and could not be matched", st.unmatched)
	}
	if st.streamErr != nil {
		res.fail("commit stream ended: %v", st.streamErr)
	}
}

// checkOutputs verifies the system's state after the run: sampled keys read
// back identically from every validator and hold bytes the generator wrote;
// validators that report the same applied_seq report the same state_root.
func checkOutputs(res *result, s *served, load *batch, accepted func(int) bool, rng *rand.Rand) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Every validator must have applied the last commit that carried one of
	// our transactions before its answers can be compared.
	s.stream.mu.RLock()
	target := s.stream.lastTxSeq
	s.stream.mu.RUnlock()
	for i := 0; i < committeeSize; i++ {
		for {
			st, err := s.clients[i].StatusAt(ctx, 0)
			if err != nil {
				res.fail("validator %d status: %v", i, err)
				return
			}
			if st.AppliedSeq >= target {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	const sampleKeys = 64
	for n := 0; n < sampleKeys; n++ {
		i := rng.Intn(len(load.keys))
		if !accepted(i) {
			continue
		}
		key := int(load.keys[i])
		res.Attempted++
		first, err := s.clients[0].GetAt(ctx, 0, keyOf(key))
		if err == nil {
			err = checkValue(s.batches, key, first.Value, first.Found)
		}
		for v := 1; v < committeeSize && err == nil; v++ {
			other, e := s.clients[v].GetAt(ctx, 0, keyOf(key))
			switch {
			case e != nil:
				err = e
			case string(other.Value) != string(first.Value) || other.Version != first.Version:
				err = fmt.Errorf("key %s: validator 0 has %q v%d, validator %d has %q v%d",
					keyOf(key), first.Value, first.Version, v, other.Value, other.Version)
			}
		}
		if err != nil {
			res.Failed++
			res.fail("read-back: %v", err)
		}
	}

	// state_root agreement: poll every validator until some applied_seq has
	// been observed on all of them; every sequence seen on two or more must
	// carry one root.
	roots := map[uint64]map[int]string{}
	common := 0
	for round := 0; round < 400 && common < 3; round++ {
		for v := 0; v < committeeSize; v++ {
			st, err := s.clients[v].StatusAt(ctx, 0)
			if err != nil {
				res.fail("validator %d status: %v", v, err)
				return
			}
			if roots[st.AppliedSeq] == nil {
				roots[st.AppliedSeq] = map[int]string{}
			}
			if _, seen := roots[st.AppliedSeq][v]; !seen {
				roots[st.AppliedSeq][v] = st.StateRoot
				if len(roots[st.AppliedSeq]) == committeeSize {
					common++
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.Attempted++
	if common == 0 {
		res.Failed++
		res.fail("no applied_seq was observed on all four validators; state roots not compared")
	}
	for seq, byValidator := range roots {
		ref := ""
		for _, root := range byValidator {
			if ref == "" {
				ref = root
			} else if root != ref {
				res.Failed++
				res.fail("state_root differs across validators at applied_seq %d: %v", seq, byValidator)
				return
			}
		}
	}
}

// checkNodeLogs reads each validator's periodic status line: a leader
// timeout or a skipped anchor on loopback means the box, not the protocol,
// shaped the run.
func checkNodeLogs(res *result, c *cluster) {
	var timeouts, skipped float64
	for _, p := range c.nodes {
		f, err := os.Open(p.logPath)
		if err != nil {
			continue
		}
		var last struct {
			Timeouts float64 `json:"timeouts"`
			Skipped  float64 `json:"skipped"`
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var line struct {
				Msg      string  `json:"msg"`
				Timeouts float64 `json:"timeouts"`
				Skipped  float64 `json:"skipped"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "status" {
				last.Timeouts, last.Skipped = line.Timeouts, line.Skipped
			}
		}
		f.Close()
		timeouts += last.Timeouts
		skipped += last.Skipped
	}
	res.Metrics["engine.leader_timeouts"] = timeouts
	res.Metrics["bullshark.skipped_anchors"] = skipped
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if st, err := c.clients[0].StatusAt(ctx, 0); err == nil {
		res.Metrics["core.excluded"] = float64(len(st.ExcludedValidators))
		res.Metrics["core.schedule_switches"] = float64(st.ScheduleEpoch)
	}
	// An excluded validator is no sign of trouble: the scheduler always
	// swaps out the f lowest scorers, faults or not.
	if timeouts > 0 || skipped > 0 {
		res.Metrics["run.disturbed"] = 1
		res.invalid("DISTURBED: %v leader timeouts, %v skipped anchors on a fault-free loopback cluster", timeouts, skipped)
	}
}
