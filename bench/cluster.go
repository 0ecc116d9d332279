package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hammerhead/pkg/client"
)

// env locates the repository under test and the scratch space the benchmark
// may write to. Everything lives under the checkout: build outputs and
// per-run directories in .bench_build, reports in bench/out.
type env struct {
	root string
}

func (e env) buildDir() string { return filepath.Join(e.root, ".bench_build") }
func (e env) binDir() string   { return filepath.Join(e.buildDir(), "bin") }
func (e env) outDir() string   { return filepath.Join(e.root, "bench", "out") }
func (e env) bin(name string) string {
	return filepath.Join(e.binDir(), name)
}

// buildSystem compiles the three commands the benchmark drives. The go tool
// decides whether anything is stale, so repeated runs cost a cache lookup.
func (e env) buildSystem() error {
	if err := os.MkdirAll(e.binDir(), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", e.binDir()+string(os.PathSeparator),
		"./cmd/hammerhead-node", "./cmd/hammerhead-keygen", "./cmd/hammerhead-replica")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the system under test: %v\n%s", err, out)
	}
	return nil
}

// buildProbes compiles bench/probes with its build tag. It is allowed to
// fail: the probes import internal packages a refactor may move.
func (e env) buildProbes() error {
	cmd := exec.Command("go", "build", "-tags", "benchprobes", "-o", e.bin("hammerhead-probes"), "./probes")
	cmd.Dir = filepath.Join(e.root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building bench/probes: %v\n%s", err, out)
	}
	return nil
}

// proc is one child process with its log file.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once Wait returned
	waitErr error
}

func startProc(name, logPath, bin string, args ...string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down and waits for it; a process that
// ignores SIGTERM for two seconds is killed.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGCONT) // a held process cannot handle SIGTERM
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// clusterConfig is what a workload asks of the launcher.
type clusterConfig struct {
	scheme     string
	seedHex    string // hammerhead-keygen -seed: keys are a function of the run's seed
	traced     bool   // -trace -metrics-addr -debug-addr on every node
	traceSlots int
	nodeFlags  []string
}

const committeeSize = 4

// cluster is one running committee: four validator processes, optionally a
// read replica, and clients for their gateways.
type cluster struct {
	env       env
	dir       string
	nodes     []*proc
	replica   *proc
	rpc       []string // gateway host:port per validator
	metrics   []string // -metrics-addr per validator (traced only)
	debug     []string // -debug-addr per validator (traced only)
	wal       []string
	committee string // path of committee.json
	clients   []*client.Client
	spawned   time.Time // when the first process was started

	stopOnce sync.Once
}

// live tracks running clusters so a signal handler can stop their children.
var live struct {
	sync.Mutex
	clusters map[*cluster]struct{}
}

func stopLiveClusters() {
	live.Lock()
	var all []*cluster
	for c := range live.clusters {
		all = append(all, c)
	}
	live.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// freePorts binds n loopback listeners at once (so no two share a port),
// records what the kernel picked and releases them.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startCluster generates keys, rewrites the committee file onto free ports
// and spawns the validators. It returns once every gateway has answered
// /v1/status. The caller owns the cluster and must call stop.
func startCluster(e env, dir string, cfg clusterConfig) (_ *cluster, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{env: e, dir: dir, committee: filepath.Join(dir, "committee.json")}
	live.Lock()
	if live.clusters == nil {
		live.clusters = map[*cluster]struct{}{}
	}
	live.clusters[c] = struct{}{}
	live.Unlock()
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	perNode := 2
	if cfg.traced {
		perNode = 4
	}
	ports, err := freePorts(committeeSize * perNode)
	if err != nil {
		return nil, fmt.Errorf("picking free ports: %w", err)
	}

	c.spawned = time.Now()
	keygen := exec.Command(e.bin("hammerhead-keygen"), "-n", strconv.Itoa(committeeSize),
		"-scheme", cfg.scheme, "-seed", cfg.seedHex, "-out", dir, "-log-level", "error")
	if out, err := keygen.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("hammerhead-keygen: %v\n%s", err, out)
	}
	if err := rewriteAddresses(c.committee, ports[:committeeSize]); err != nil {
		return nil, err
	}
	for i := 0; i < committeeSize; i++ {
		rpcAddr := ports[committeeSize+i]
		walPath := filepath.Join(dir, fmt.Sprintf("v%d.wal", i))
		args := []string{
			"-committee", c.committee, "-id", strconv.Itoa(i),
			"-key", filepath.Join(dir, fmt.Sprintf("validator-%d.key", i)),
			"-wal", walPath, "-execution", "-rpc-addr", rpcAddr, "-rpc-lanes", "4", "-log-format", "json",
		}
		if cfg.traced {
			c.metrics = append(c.metrics, ports[2*committeeSize+i])
			c.debug = append(c.debug, ports[3*committeeSize+i])
			args = append(args, "-trace", "-trace-slots", strconv.Itoa(cfg.traceSlots),
				"-metrics-addr", c.metrics[i], "-debug-addr", c.debug[i])
		}
		args = append(args, cfg.nodeFlags...)
		p, err := startProc(fmt.Sprintf("validator-%d", i), filepath.Join(dir, fmt.Sprintf("node%d.log", i)),
			e.bin("hammerhead-node"), args...)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, p)
		c.rpc = append(c.rpc, rpcAddr)
		c.wal = append(c.wal, walPath)
		cl, err := newClient(rpcAddr)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
		// One validator at a time, the earlier ones held stopped: a
		// hammerhead-node that receives a peer's message between binding its
		// listener and finishing construction dereferences a nil node and
		// exits (cmd/hammerhead-node: the transport handler captures nd before
		// node.New assigns it). Launched together, as an operator would, three
		// launches in ten lost a validator that way, and with the traced run's
		// extra listeners eight did in a row; with its peers frozen nothing
		// can arrive in that window. README "Found while building" has the
		// details.
		if err := c.waitStatus(cl, p); err != nil {
			return nil, err
		}
		if i < committeeSize-1 {
			if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
				return nil, fmt.Errorf("holding %s: %w", p.name, err)
			}
		}
	}
	for _, p := range c.nodes[:committeeSize-1] {
		if err := p.cmd.Process.Signal(syscall.SIGCONT); err != nil {
			return nil, fmt.Errorf("releasing %s: %w", p.name, err)
		}
	}
	return c, nil
}

// newClient builds a client for exactly one gateway. One attempt: a refusal
// or an error is a result to record, not something to retry away. The
// transport keeps one idle connection per issuer, so requests reuse
// connections instead of dialling.
func newClient(addr string) (*client.Client, error) {
	return client.New(client.Config{
		Endpoints: []string{addr}, ClientID: "bench", Attempts: 1,
		HTTPClient: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: issuers + 2},
		},
	})
}

// rewriteAddresses points the committee file's validators at the given
// addresses, leaving every other field as hammerhead-keygen wrote it.
func rewriteAddresses(path string, addrs []string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	var validators []map[string]json.RawMessage
	if err := json.Unmarshal(doc["validators"], &validators); err != nil || len(validators) != len(addrs) {
		return fmt.Errorf("%s: expected %d validators (err %v)", path, len(addrs), err)
	}
	for i := range validators {
		validators[i]["address"], _ = json.Marshal(addrs[i])
	}
	doc["validators"], _ = json.Marshal(validators)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// waitStatus polls one gateway until it answers, failing early if the
// process behind it died.
func (c *cluster) waitStatus(cl *client.Client, p *proc) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.waitErr, tail(p.logPath))
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := cl.StatusAt(ctx, 0)
		cancel()
		if err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s did not answer /v1/status within 15s", p.name)
}

// startReplica spawns hammerhead-replica against all four gateways and waits
// until it serves. It becomes client index committeeSize.
func (c *cluster) startReplica() error {
	ports, err := freePorts(1)
	if err != nil {
		return err
	}
	p, err := startProc("replica", filepath.Join(c.dir, "replica.log"), c.env.bin("hammerhead-replica"),
		"-committee", c.committee, "-validators", strings.Join(c.rpc, ","),
		"-listen", ports[0], "-log-format", "json")
	if err != nil {
		return err
	}
	c.replica = p
	cl, err := newClient(ports[0])
	if err != nil {
		return err
	}
	c.clients = append(c.clients, cl)
	return c.waitStatus(cl, p)
}

// procs lists every child that belongs to the system under test.
func (c *cluster) procs() []*proc {
	out := append([]*proc(nil), c.nodes...)
	if c.replica != nil {
		out = append(out, c.replica)
	}
	return out
}

// dead names the first child that has exited, if any. A committee that lost
// a member keeps committing at n=4, so a run must check this explicitly or it
// silently measures an f=1 cluster.
func (c *cluster) dead() error {
	for _, p := range c.procs() {
		if p.exited() {
			return fmt.Errorf("%s exited during the run: %v (log kept)", p.name, p.waitErr)
		}
	}
	return nil
}

// stop terminates every child and waits for it. Idempotent.
func (c *cluster) stop() {
	c.stopOnce.Do(func() {
		var wg sync.WaitGroup
		for _, p := range c.procs() {
			wg.Add(1)
			go func(p *proc) {
				defer wg.Done()
				p.stop()
			}(p)
		}
		wg.Wait()
		live.Lock()
		delete(live.clusters, c)
		live.Unlock()
	})
}

// keepLogs copies the children's logs to bench/out/<workload>/ so a failed
// check can be diagnosed after the run directory is gone.
func (c *cluster) keepLogs(workload string) {
	dst := filepath.Join(c.env.outDir(), workload)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return
	}
	for _, p := range c.procs() {
		if err := copyFile(p.logPath, filepath.Join(dst, filepath.Base(p.logPath))); err != nil {
			fmt.Fprintf(os.Stderr, "bench: keeping %s: %v\n", p.logPath, err)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: node logs kept under %s\n", dst)
}

// tail returns the end of a log for an error message.
func tail(path string) string {
	raw, _ := os.ReadFile(path)
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return string(raw)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ---- /proc readers ----

// cpuSeconds is the time a live process's threads have spent on a CPU, from
// the scheduler's own nanosecond counters (/proc/<pid>/task/*/schedstat).
// utime+stime in /proc/<pid>/stat would say the same thing, but this kernel
// fills them by sampling at the 100 Hz tick, and validators wake on timers:
// depending on how their bursts fall against the tick, the same work read
// 20 % apart from run to run.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var nanos uint64
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(raw))
		if len(fields) < 1 {
			return 0, errors.New("unexpected schedstat layout")
		}
		n, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, errors.New("unexpected schedstat layout")
		}
		nanos += n
	}
	return float64(nanos) / 1e9, nil
}

// procField reads one "Key: value" line of /proc/<pid>/<file> as a number.
func procField(pid int, file, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s has no %s", pid, file, key)
}

// peakRSSMB is VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procField(pid, "status", "VmHWM")
	return kb / 1024, err
}

// ioBytes is rchar+wchar: every byte the process moved through read/write
// system calls, sockets and files alike.
func ioBytes(pid int) (float64, error) {
	r, err := procField(pid, "io", "rchar")
	if err != nil {
		return 0, err
	}
	w, err := procField(pid, "io", "wchar")
	return r + w, err
}
