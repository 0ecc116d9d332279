package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hammerhead/pkg/rpcapi"
)

// layerCollector gathers the traced run's per-layer numbers from the
// surfaces an operator has: /v1/status, /metrics, /proc, the WAL files,
// /v1/trace/{txid} and a CPU profile of validator 0. It samples while the
// window is open and computes when the run is over; nothing is written
// until then.
type layerCollector struct {
	s        *served
	from, to time.Time
	done     chan struct{}

	a, b       layerEdge
	gaugeMax   map[string]float64 // /metrics gauge -> largest value scraped on any validator
	pendingMax float64
	appliedLag float64
	replicaLag float64
	walGrowth  float64
	err        error

	profileSeconds int
	profile        []byte
	profileErr     error
	profiled       sync.WaitGroup
}

// layerEdge is what is read at each end of the window.
type layerEdge struct {
	status                        [committeeSize]rpcapi.StatusResponse
	io                            float64 // rchar+wchar over all processes
	batchSum, batchCount, dropped float64 // summed over validators
}

func startLayerCollector(s *served, from, to time.Time) *layerCollector {
	l := &layerCollector{s: s, from: from, to: to, done: make(chan struct{}), gaugeMax: map[string]float64{}}
	// The profile sits inside the window with a second of margin each side.
	l.profileSeconds = max(int(to.Sub(from).Seconds())-4, 1)
	go l.run()
	return l
}

func (l *layerCollector) run() {
	defer close(l.done)
	time.Sleep(time.Until(l.from))
	if l.a, l.err = l.edge(); l.err != nil {
		return
	}
	l.profiled.Add(1)
	go func() {
		defer l.profiled.Done()
		time.Sleep(time.Second)
		l.profile, l.profileErr = httpGet(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", l.s.debug[0], l.profileSeconds),
			time.Duration(l.profileSeconds+10)*time.Second)
	}()
	lastWAL := l.walSizes()
	for tick := 1; time.Now().Before(l.to); tick++ {
		time.Sleep(200 * time.Millisecond)
		// WAL growth: checkpoints compact the file, so growth is the sum
		// of the increases between close-set samples.
		sizes := l.walSizes()
		for i := range sizes {
			if sizes[i] > lastWAL[i] {
				l.walGrowth += float64(sizes[i] - lastWAL[i])
			}
		}
		lastWAL = sizes
		if tick%5 == 0 {
			l.scrape()
		}
	}
	l.b, l.err = l.edge()
}

func (l *layerCollector) walSizes() []int64 {
	sizes := make([]int64, len(l.s.wal))
	for i, path := range l.s.wal {
		if st, err := os.Stat(path); err == nil {
			sizes[i] = st.Size()
		}
	}
	return sizes
}

func httpGet(url string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// scrapeMetrics reads one validator's Prometheus exposition into series -> value.
func scrapeMetrics(addr string) (map[string]float64, error) {
	body, err := httpGet("http://"+addr+"/metrics", 2*time.Second)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func (l *layerCollector) edge() (layerEdge, error) {
	var e layerEdge
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for v := 0; v < committeeSize; v++ {
		st, err := l.s.clients[v].StatusAt(ctx, 0)
		if err != nil {
			return e, err
		}
		e.status[v] = st
		m, err := scrapeMetrics(l.s.metrics[v])
		if err != nil {
			return e, err
		}
		e.batchSum += m["hammerhead_verify_batch_size_sum"]
		e.batchCount += m["hammerhead_verify_batch_size_count"]
		e.dropped += m["hammerhead_preverify_dropped_total"]
	}
	for _, p := range l.s.procs() {
		b, err := ioBytes(p.pid())
		if err != nil {
			return e, err
		}
		e.io += b
	}
	return e, nil
}

// scrape is the once-a-second reading of queues and lags.
func (l *layerCollector) scrape() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var applied0 uint64
	for v := 0; v < committeeSize; v++ {
		if m, err := scrapeMetrics(l.s.metrics[v]); err == nil {
			for name, val := range m {
				if strings.HasSuffix(name, "_depth") {
					l.gaugeMax[name] = max(l.gaugeMax[name], val)
				}
			}
		}
		if st, err := l.s.clients[v].StatusAt(ctx, 0); err == nil {
			l.pendingMax = max(l.pendingMax, float64(st.MempoolPending))
			if st.Commits > st.AppliedSeq {
				l.appliedLag = max(l.appliedLag, float64(st.Commits-st.AppliedSeq))
			}
			if v == 0 {
				applied0 = st.AppliedSeq
			}
		}
	}
	if l.s.replica != nil {
		if st, err := l.s.clients[committeeSize].StatusAt(ctx, 0); err == nil && applied0 > st.AppliedSeq {
			l.replicaLag = max(l.replicaLag, float64(applied0-st.AppliedSeq))
		}
	}
}

// finish turns what was sampled into per-layer metrics. It runs after the
// drain, with the window's throughput already in res.
func (l *layerCollector) finish(res *result, w workload, opt runOptions, ops []op, load *batch, warm, window time.Duration) {
	<-l.done
	if l.err != nil {
		res.note("per-layer counters unavailable: %v", l.err)
		return
	}
	m := res.Metrics
	a0, b0 := l.a.status[0], l.b.status[0]
	elapsed := l.to.Sub(l.from)
	tx := m["throughput_tx_s"] * elapsed.Seconds()
	if rounds := float64(b0.Round - a0.Round); rounds > 0 {
		m["engine.round_ms"] = ms(elapsed) / rounds
		m["engine.tx_per_header"] = tx / (rounds * committeeSize)
	}
	if commits := float64(b0.Commits - a0.Commits); commits > 0 {
		m["bullshark.commits_per_s"] = commits / elapsed.Seconds()
		m["bullshark.tx_per_commit"] = tx / commits
	}
	m["core.schedule_switches"] = float64(b0.ScheduleEpoch - a0.ScheduleEpoch)
	m["mempool.pending_max"] = l.pendingMax
	m["engine.pipeline_depth_max"] = l.gaugeMax["hammerhead_pipeline_depth"]
	m["node.commit_queue_max"] = l.gaugeMax["hammerhead_commit_queue_depth"]
	m["storage.wal_queue_max"] = l.gaugeMax["hammerhead_wal_queue_depth"]
	m["execution.queue_max"] = l.gaugeMax["hammerhead_executor_queue_depth"]
	m["crypto.verify_queue_max"] = l.gaugeMax["hammerhead_verify_queue_depth"]
	m["execution.applied_lag_max"] = l.appliedLag
	m["replica.lag_commits_max"] = l.replicaLag
	if n := l.b.batchCount - l.a.batchCount; n > 0 {
		m["crypto.verify_batch_mean"] = (l.b.batchSum - l.a.batchSum) / n
	}
	m["crypto.preverify_dropped"] = l.b.dropped - l.a.dropped
	m["storage.wal_bytes_per_tx"] = l.walGrowth / tx
	m["transport.io_bytes_per_tx"] = (l.b.io - l.a.io - l.walGrowth) / tx

	l.waits(res, w, opt, ops, load, warm, window)
	l.budget(res, l.s.env, w)
	runProbes(res, l.s.env, w, opt)
}

// waits samples transactions of the window and reads their waterfalls from
// the validator that admitted them.
func (l *layerCollector) waits(res *result, w workload, opt runOptions, ops []op, load *batch, warm, window time.Duration) {
	const sample = 2000
	var posts []*op
	for i := range ops {
		if o := &ops[i]; o.kind == opPost && o.err == nil && o.due >= warm && o.due < warm+window {
			posts = append(posts, o)
		}
	}
	if len(posts) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(opt.seed ^ 0x7ace))
	deltas := make([][]float64, len(traceStages))
	complete, fetched := 0, 0
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for n := 0; n < sample && ctx.Err() == nil; n++ {
		o := posts[rng.Intn(len(posts))]
		id := load.id(o.first + rng.Intn(o.n))
		tr, err := l.s.clients[o.target].TraceAt(ctx, 0, id)
		fetched++
		if err != nil {
			continue
		}
		at := map[string]int64{}
		for _, st := range tr.Stages {
			at[st.Stage] = st.TimeNanos
		}
		if tr.Complete {
			complete++
		}
		for i, st := range traceStages {
			if from, to := at[st.From], at[st.To]; from != 0 && to != 0 {
				deltas[i] = append(deltas[i], float64(to-from)/1e6)
			}
		}
	}
	res.Metrics["obs.trace_complete_share"] = float64(complete) / float64(fetched)
	res.Samples["trace_waterfalls"] = fetched
	for i, st := range traceStages {
		sort.Float64s(deltas[i])
		res.Metrics[st.Layer+"_p50_ms"] = percentile(deltas[i], 0.50)
		res.Metrics[st.Layer+"_p95_ms"] = percentile(deltas[i], 0.95)
	}
}

// budget charges every sample of validator 0's CPU profile to the innermost
// frame that belongs to one of the repository's modules, and scales the
// totals to microseconds per committed transaction.
func (l *layerCollector) budget(res *result, e env, w workload) {
	l.profiled.Wait()
	if l.profileErr != nil {
		res.note("CPU profile unavailable: %v", l.profileErr)
		return
	}
	if err := os.MkdirAll(filepath.Join(e.outDir(), w.Name), 0o755); err != nil {
		res.note("CPU profile not kept: %v", err)
		return
	}
	path := filepath.Join(e.outDir(), w.Name, "validator0.cpu.pb.gz")
	if err := os.WriteFile(path, l.profile, 0o644); err != nil {
		res.note("CPU profile not kept: %v", err)
		return
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		res.note("go tool pprof -traces: %v", err)
		return
	}
	byPkg, total := chargeSamples(string(out))
	if total == 0 {
		res.note("CPU profile holds no samples")
		return
	}
	tx := res.Metrics["throughput_tx_s"] * float64(l.profileSeconds)
	listed := 0.0
	for _, pkg := range append([]string{"runtime"}, budgetPackages...) {
		res.Metrics[pkg+".cpu_us_per_tx"] = byPkg[pkg] * 1e6 / tx
		listed += byPkg[pkg]
	}
	res.Metrics["budget.attributed_share"] = listed / total
	res.Samples["profile_ms"] = int(total * 1000)
}

// chargeSamples parses `go tool pprof -traces` output: blocks separated by
// dashed lines, the first line of a block holding the sample's value and its
// innermost frame, the following lines its callers. Each block is charged to
// the first frame inside hammerhead/internal/ (types, a vocabulary package,
// is skipped) or to "runtime" when there is none.
func chargeSamples(traces string) (byPkg map[string]float64, total float64) {
	byPkg = map[string]float64{}
	var value float64
	var owner string
	inBlock := false
	flush := func() {
		if inBlock {
			if owner == "" {
				owner = "runtime"
			}
			byPkg[owner] += value
			total += value
		}
		inBlock, owner, value = false, "", 0
	}
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[len(fields)-1]
		if len(fields) >= 2 && value == 0 {
			if v, ok := parseSeconds(fields[0]); ok {
				value = v
				frame = strings.Join(fields[1:], " ")
			}
		}
		if owner == "" {
			if rest, ok := strings.CutPrefix(frame, "hammerhead/internal/"); ok {
				if end := strings.IndexAny(rest, "./"); end > 0 && rest[:end] != "types" {
					owner = rest[:end]
				}
			}
		}
	}
	flush()
	return byPkg, total
}

// parseSeconds reads pprof's scaled durations ("10ms", "1.52s").
func parseSeconds(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}

// runProbes builds and runs bench/probes, the isolation timings of the leaf
// layers. A refactor that moves an internal package breaks only this step:
// probes.built reads 0 and every other metric is still reported.
func runProbes(res *result, e env, w workload, opt runOptions) {
	if err := e.buildProbes(); err != nil {
		res.note("%v", err)
		return
	}
	cmd := exec.Command(e.bin("hammerhead-probes"), "-seed", strconv.FormatInt(opt.seed, 10),
		"-tx-per-header", strconv.Itoa(w.ProbeShape), "-batch", strconv.Itoa(w.Batch),
		"-dir", filepath.Join(e.buildDir(), "tmp"))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	out, err := cmd.Output()
	if err != nil {
		res.note("bench/probes failed: %v", err)
		return
	}
	var values map[string]float64
	if err := json.Unmarshal(out, &values); err != nil {
		res.note("bench/probes printed no JSON: %v", err)
		return
	}
	res.Metrics["probes.built"] = 1
	for _, p := range probeMetrics {
		res.Metrics[p.Name] = values[p.Name]
	}
}
