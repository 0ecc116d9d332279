package rpc

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/execution"
	"hammerhead/internal/mempool"
	"hammerhead/internal/metrics"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

const (
	// historyDepth is the most recent commits the gateway retains for SSE
	// resume. A client further behind receives a gap event and resumes from
	// the oldest retained sequence.
	historyDepth = 4096
	// historyBytes bounds what the retained commits may hold in transaction
	// IDs and payloads: under load the resume window is this many bytes of
	// history, not historyDepth commits (see commitRing for what is exempt).
	historyBytes = 4 << 20
	// streamBatch is how many events a subscriber copies out of the ring per
	// hold of the gateway's lock — the lock ObserveCommit takes on the node's
	// commit-delivery goroutine, which a deep resume must not hold for the
	// length of the whole ring.
	streamBatch = 64
	// streamWriteTimeout is how long one batch of stream events may take to
	// reach a subscriber's socket. A subscriber that stops reading is
	// disconnected when it runs out, instead of parking its handler (and the
	// batch it copied) for ever; it can resume from its Last-Event-ID.
	streamWriteTimeout = 10 * time.Second
	// maxSubmitBody bounds one POST /v1/tx body.
	maxSubmitBody = 8 << 20
	// maxTxIDsPerEvent caps the per-commit ID list carried on the stream;
	// TxCount always reports the true size.
	maxTxIDsPerEvent = 1 << 14
	// readHeaderTimeout bounds how long a client may take to send its request
	// line and headers, and idleTimeout how long a keep-alive connection may
	// sit between requests: a public listener must not let a client that
	// connects and then stalls hold a connection (and its goroutine) forever.
	// Deliberately not ReadTimeout/WriteTimeout, which would also cut
	// /v1/commits, a response that stays open for as long as the subscriber.
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Config wires a Gateway to its node. Submit is required; everything else
// degrades gracefully when absent (reads 501, status partial).
type Config struct {
	// Addr is the listen address (":0" binds an ephemeral port; see Addr()).
	Addr string
	// Validator is the serving node's ID, echoed in /v1/status.
	Validator types.ValidatorID
	// Submit admits one client transaction into the node's fair-admission
	// mempool. It must be safe for concurrent use and is expected to return
	// mempool.ErrFull under lane backpressure.
	Submit func(client string, tx types.Transaction) error
	// Lane maps a client ID to its admission lane (echoed to clients so they
	// can reason about fairness); nil reports lane 0.
	Lane func(client string) int
	// LaneStats feeds /v1/status and the lane-depth gauge; nil omits lanes.
	LaneStats func() []mempool.LaneStats
	// RedirectSubmit, when non-empty, turns POST /v1/tx into a 307 redirect
	// toward one of these validator gateway base URLs (rotating across them)
	// instead of admitting locally — the read-replica shape, which serves
	// reads but never feeds a mempool. Submit may be nil when set.
	RedirectSubmit []string
	// ReadKV serves GET /v1/kv; nil (a gateway with no ledger behind it)
	// answers 501. Validators and replicas always set it.
	ReadKV func(key []byte) (execution.KVRead, bool)
	// ProvenRead serves GET /v1/kv/{key}?proof=1: a Merkle proof plus quorum
	// certificate against the node's last certified checkpoint. nil answers
	// 501; ok=false (no certificate yet) answers 503.
	ProvenRead func(key []byte) (execution.ProvenKV, bool)
	// Checkpoint serves GET /v1/checkpoint: the newest quorum checkpoint
	// certificate this node holds. nil answers 501; ok=false 404. ?full=1
	// commit streams push it too: on connect, then after each
	// ObserveCheckpoint that finds a newer one.
	Checkpoint func() (*checkpoint.Certificate, bool)
	// SnapshotBlob serves GET /v1/snapshot: the raw wire encoding
	// (execution.EncodeSnapshot) of the newest CERTIFIED checkpoint, the blob
	// replicas bootstrap from. nil answers 501; ok=false 404.
	SnapshotBlob func() ([]byte, bool)
	// RootAt resolves the executor's chained root at a commit sequence for
	// stream events; nil leaves event roots empty.
	RootAt func(seq uint64) (types.Digest, bool)
	// Status supplies the node-level fields of /v1/status (engine round,
	// frontier, execution cursor); the gateway fills in commit and mempool
	// counters. Nil leaves those fields zero.
	Status func() rpcapi.StatusResponse
	// Trace serves GET /v1/trace/{txid}: the transaction's commit-path
	// waterfall from the node's lifecycle tracer. nil (tracing disabled)
	// answers 501; ok=false (unknown or evicted tx) 404.
	Trace func(txID uint64) (rpcapi.TraceResponse, bool)
	// Metrics, when non-nil, receives gateway counters
	// (hammerhead_rpc_requests_total, hammerhead_rpc_submit_latency_seconds,
	// hammerhead_mempool_lane_depth) and is mounted at /metrics.
	Metrics *metrics.Registry
}

// Gateway is the embedded HTTP server. Create with New (binds the listener),
// then Start; Close is idempotent.
type Gateway struct {
	cfg      Config
	listener net.Listener
	server   *http.Server

	// Commit history for SSE resume. mu/cond guard it and wake streaming
	// subscribers; ObserveCommit is the only writer, and appends are O(1)
	// amortized — this runs on the node's commit-delivery goroutine.
	// checkpoints counts ObserveCheckpoint calls, so a full stream parked in
	// the wait knows to look for a newer certificate; certSeqs are the two
	// newest certified seqs those calls named, older first (0: none).
	mu          sync.Mutex
	cond        *sync.Cond
	ring        *commitRing // guarded by mu
	lastSeq     uint64      // guarded by mu
	commits     uint64      // guarded by mu
	checkpoints uint64      // guarded by mu
	certSeqs    [2]uint64   // guarded by mu
	closed      bool        // guarded by mu

	// writeTimeout is streamWriteTimeout; a field so a test can shorten it
	// before Start.
	writeTimeout time.Duration

	txSeq       atomic.Uint64
	redirectSeq atomic.Uint64
	closeOnce   sync.Once

	reqsMetric      *metrics.Counter
	submitLatency   *metrics.Histogram
	laneDepth       *metrics.Gauge
	historyEvents   *metrics.Gauge
	historyBytesMet *metrics.Gauge
	streamEvictions *metrics.Counter
}

// New binds the gateway's listener (so ":0" callers can read Addr before
// serving) and assembles the routes. Call Start to begin serving.
func New(cfg Config) (*Gateway, error) {
	if cfg.Submit == nil && len(cfg.RedirectSubmit) == 0 {
		return nil, fmt.Errorf("rpc: Config.Submit (or RedirectSubmit) is required")
	}
	for i, t := range cfg.RedirectSubmit {
		if !strings.Contains(t, "://") {
			cfg.RedirectSubmit[i] = "http://" + t
		}
		cfg.RedirectSubmit[i] = strings.TrimRight(cfg.RedirectSubmit[i], "/")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listening on %s: %w", cfg.Addr, err)
	}
	// The ring's floor is one commit: the newest always stays, however
	// large, so a subscriber that keeps up never sees a gap.
	g := &Gateway{
		cfg:          cfg,
		listener:     ln,
		ring:         newCommitRing(historyDepth, 1, historyBytes),
		writeTimeout: streamWriteTimeout,
	}
	g.cond = sync.NewCond(&g.mu)
	if cfg.Metrics != nil {
		g.reqsMetric = cfg.Metrics.Counter("hammerhead_rpc_requests_total")
		g.submitLatency = cfg.Metrics.Histogram("hammerhead_rpc_submit_latency_seconds",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})
		g.laneDepth = cfg.Metrics.Gauge("hammerhead_mempool_lane_depth")
		g.historyEvents = cfg.Metrics.Gauge("hammerhead_rpc_history_events")
		g.historyBytesMet = cfg.Metrics.Gauge("hammerhead_rpc_history_bytes")
		g.streamEvictions = cfg.Metrics.Counter("hammerhead_rpc_stream_evictions_total")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tx", g.counted(g.handleSubmit))
	mux.HandleFunc("/v1/commits", g.counted(g.handleCommits))
	mux.HandleFunc("/v1/status", g.counted(g.handleStatus))
	mux.HandleFunc("/v1/checkpoint", g.counted(g.handleCheckpoint))
	mux.HandleFunc("/v1/snapshot", g.counted(g.handleSnapshot))
	mux.HandleFunc("/v1/trace/", g.counted(g.handleTrace))
	if cfg.Metrics != nil {
		mux.Handle("/metrics", cfg.Metrics)
	}
	// The KV route bypasses ServeMux: its path cleaning 301-redirects keys
	// containing "//" or dot segments to a DIFFERENT key (KV keys are
	// arbitrary byte strings), silently breaking read-your-writes. handleKV
	// parses the escaped path itself.
	kv := g.counted(g.handleKV)
	g.server = &http.Server{
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.EscapedPath(), "/v1/kv/") {
				kv(w, r)
				return
			}
			mux.ServeHTTP(w, r)
		}),
	}
	return g, nil
}

// Addr returns the bound listen address.
func (g *Gateway) Addr() string { return g.listener.Addr().String() }

// Start begins serving in a background goroutine.
func (g *Gateway) Start() {
	go func() { _ = g.server.Serve(g.listener) }()
}

// Close stops the server, terminating open streams. Idempotent.
func (g *Gateway) Close() error {
	var err error
	g.closeOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		g.mu.Unlock()
		g.cond.Broadcast()
		// Close (not Shutdown): open SSE streams would hold a graceful
		// shutdown forever.
		err = g.server.Close()
	})
	return err
}

// ObserveCommit records one ordered sub-DAG for the commit stream and status
// counters. Called from the node's commit-delivery goroutine — it appends to
// the ring and wakes subscribers, nothing slower. The ring retains the full
// transaction payloads (in application order) plus the commit's content
// digest so ?full=1 subscribers — read replicas — can re-execute the stream.
// The payloads are copied once into one block: a peer's decoded payloads
// alias its whole certificate frame, which must not outlive the DAG's window
// for the sake of a few bytes of it. historyBytes bounds the retained bytes.
func (g *Gateway) ObserveCommit(sub bullshark.CommittedSubDAG) {
	ev := rpcapi.CommitEvent{
		Seq:          sub.Index,
		Round:        uint64(sub.Anchor.Round),
		TxCount:      sub.TxCount(),
		CommitDigest: hex.EncodeToString(digestOf(&sub)),
	}
	size := 0
	for _, v := range sub.Vertices {
		if v.Batch == nil {
			continue
		}
		for i := range v.Batch.Transactions {
			size += len(v.Batch.Transactions[i].Payload)
		}
	}
	// Sized exactly: the ring holds these for as long as the commit, and
	// accounts for their capacities.
	ev.TxIDs = make([]uint64, 0, min(ev.TxCount, maxTxIDsPerEvent))
	c := newRetainedCommit(ev, ev.TxCount, size)
	for _, v := range sub.Vertices {
		if v.Batch == nil {
			continue
		}
		for i := range v.Batch.Transactions {
			c.addPayload(v.Batch.Transactions[i].Payload)
			if len(c.ev.TxIDs) < maxTxIDsPerEvent {
				c.ev.TxIDs = append(c.ev.TxIDs, v.Batch.Transactions[i].ID)
			}
		}
	}
	g.observe(c)
}

func digestOf(sub *bullshark.CommittedSubDAG) []byte {
	d := execution.CommitDigestOf(sub)
	return d[:]
}

// ObserveEvent records one already-built commit event, copying its payloads
// into the ring's block. Replicas re-serving a stream they tail (and
// re-execute) feed their gateway here; validators go through ObserveCommit.
// Events must arrive in ascending Seq order.
func (g *Gateway) ObserveEvent(ev rpcapi.CommitEvent) {
	g.observe(packCommit(ev))
}

func (g *Gateway) observe(c retainedCommit) {
	g.mu.Lock()
	if c.ev.Seq > g.lastSeq {
		g.ring.push(c)
		g.lastSeq = c.ev.Seq
	}
	g.commits++
	n, held := g.ring.n, g.ring.bytes
	g.mu.Unlock()
	g.cond.Broadcast()
	if g.historyEvents != nil {
		g.historyEvents.Set(int64(n))
		g.historyBytesMet.Set(int64(held))
	}
}

// ObserveCheckpoint takes note of a quorum certificate for the checkpoint at
// commit seq and wakes ?full=1 subscribers to push the newest certificate
// (Config.Checkpoint) if it is newer than the last one each has sent.
// Validators call it when their engine attaches a certificate, replicas when
// they promote one. The resume window then keeps every commit above the older
// of the two newest certified seqs, whatever the byte budget: a replica
// bootstrapping from either certified snapshot resumes the stream right
// after it. It takes the gateway's lock for that bookkeeping and nothing
// slower.
func (g *Gateway) ObserveCheckpoint(seq uint64) {
	g.mu.Lock()
	g.checkpoints++
	if seq > g.certSeqs[1] {
		g.certSeqs = [2]uint64{g.certSeqs[1], seq}
		older := g.certSeqs[0]
		if older == 0 {
			older = seq
		}
		g.ring.keepCommitsAbove(older)
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// counted wraps a handler with the request counter.
func (g *Gateway) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.reqsMetric != nil {
			g.reqsMetric.Inc()
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// clientID resolves the submitter identity for lane selection: explicit
// request field, then the X-Client-ID header, then the remote host.
func clientID(req *rpcapi.SubmitRequest, r *http.Request) string {
	if req.Client != "" {
		return req.Client
	}
	if h := r.Header.Get("X-Client-ID"); h != "" {
		return h
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "POST only"})
		return
	}
	if g.cfg.Submit == nil {
		// Read replica: this node has no mempool. 307 preserves the POST body,
		// so a redirect-following client lands on a real validator unchanged.
		target := g.cfg.RedirectSubmit[int(g.redirectSeq.Add(1)-1)%len(g.cfg.RedirectSubmit)]
		w.Header().Set("Location", target+"/v1/tx")
		writeJSON(w, http.StatusTemporaryRedirect, rpcapi.SubmitError{Error: "read replica: submit to a validator"})
		return
	}
	start := time.Now()
	var req rpcapi.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, rpcapi.SubmitError{Error: "decoding body: " + err.Error()})
		return
	}
	client := clientID(&req, r)
	resp := rpcapi.SubmitResponse{}
	if g.cfg.Lane != nil {
		resp.Lane = g.cfg.Lane(client)
	}
	now := time.Now().UnixNano()
	for i := range req.Txs {
		tx := types.Transaction{
			ID:              req.Txs[i].ID,
			SubmitTimeNanos: now,
			Payload:         req.Txs[i].Payload,
		}
		if tx.ID == 0 {
			tx.ID = g.txSeq.Add(1)
		}
		if err := g.cfg.Submit(client, tx); err != nil {
			resp.Rejected++
			resp.Errors = append(resp.Errors, rpcapi.SubmitError{Index: i, Error: err.Error()})
			continue
		}
		resp.Accepted++
	}
	if g.submitLatency != nil {
		g.submitLatency.Observe(time.Since(start).Seconds())
	}
	if g.laneDepth != nil && g.cfg.LaneStats != nil {
		depth := 0
		for _, ls := range g.cfg.LaneStats() {
			if ls.Depth > depth {
				depth = ls.Depth
			}
		}
		g.laneDepth.Set(int64(depth))
	}
	status := http.StatusOK
	if resp.Accepted == 0 && resp.Rejected > 0 {
		// Every transaction bounced off the lane cap: surface backpressure as
		// 429 so clients (and proxies) back off.
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, resp)
}

func (g *Gateway) handleKV(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "GET only"})
		return
	}
	raw := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/kv/")
	key, err := url.PathUnescape(raw)
	if err != nil || key == "" {
		writeJSON(w, http.StatusBadRequest, rpcapi.SubmitError{Error: "bad key"})
		return
	}
	if r.URL.Query().Get("proof") == "1" {
		g.handleKVProof(w, []byte(key))
		return
	}
	if g.cfg.ReadKV == nil {
		writeJSON(w, http.StatusNotImplemented, rpcapi.SubmitError{Error: "no KV ledger behind this gateway"})
		return
	}
	read, ok := g.cfg.ReadKV([]byte(key))
	if !ok {
		writeJSON(w, http.StatusNotImplemented, rpcapi.SubmitError{Error: "state machine has no KV read surface"})
		return
	}
	resp := rpcapi.KVResponse{
		Key:          []byte(key),
		Value:        read.Value,
		Found:        read.Found,
		Version:      read.Version,
		AppliedSeq:   read.AppliedSeq,
		AppliedRound: uint64(read.Round),
		StateRoot:    hex.EncodeToString(read.StateRoot[:]),
	}
	status := http.StatusOK
	if !read.Found {
		status = http.StatusNotFound
	}
	writeJSON(w, status, resp)
}

// handleKVProof answers GET /v1/kv/{key}?proof=1: the Merkle proof for the
// key against the last quorum-certified checkpoint, plus the certificate. The
// convenience Value/Found fields are filled from the proof itself, but a
// trustless client re-derives them by verifying the proof client-side.
func (g *Gateway) handleKVProof(w http.ResponseWriter, key []byte) {
	if g.cfg.ProvenRead == nil {
		writeJSON(w, http.StatusNotImplemented, rpcapi.SubmitError{Error: "proof-carrying reads unavailable on this node"})
		return
	}
	pr, ok := g.cfg.ProvenRead(key)
	if !ok {
		writeJSON(w, http.StatusServiceUnavailable, rpcapi.SubmitError{Error: "no certified checkpoint yet"})
		return
	}
	_, entry, err := pr.Proof.Verify(key)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, rpcapi.SubmitError{Error: "malformed proof: " + err.Error()})
		return
	}
	leaf, steps := rpcapi.ProofToWire(pr.Proof)
	resp := rpcapi.KVProofResponse{
		Key:          key,
		Value:        entry.Value,
		Found:        entry.Found,
		Leaf:         leaf,
		Steps:        steps,
		StateVersion: pr.Version,
		StateOpaque:  pr.Opaque,
		Cert:         rpcapi.CertToWire(pr.Cert),
	}
	status := http.StatusOK
	if !entry.Found {
		status = http.StatusNotFound
	}
	writeJSON(w, status, resp)
}

// handleCheckpoint answers GET /v1/checkpoint: the newest quorum checkpoint
// certificate, the trust anchor replicas cross-check their re-executed state
// against.
func (g *Gateway) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "GET only"})
		return
	}
	if g.cfg.Checkpoint == nil {
		writeJSON(w, http.StatusNotImplemented, rpcapi.SubmitError{Error: "checkpoint certification disabled on this node"})
		return
	}
	cert, ok := g.cfg.Checkpoint()
	if !ok {
		writeJSON(w, http.StatusNotFound, rpcapi.SubmitError{Error: "no certified checkpoint yet"})
		return
	}
	writeJSON(w, http.StatusOK, rpcapi.CertToWire(cert))
}

// handleSnapshot answers GET /v1/snapshot: the raw certified snapshot blob
// (execution snapshot wire format) replicas bootstrap from. Binary, not JSON
// — the blob already carries its own framing, checksum and certificate.
func (g *Gateway) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "GET only"})
		return
	}
	if g.cfg.SnapshotBlob == nil {
		writeJSON(w, http.StatusNotImplemented, rpcapi.SubmitError{Error: "snapshot serving disabled on this node"})
		return
	}
	blob, ok := g.cfg.SnapshotBlob()
	if !ok {
		writeJSON(w, http.StatusNotFound, rpcapi.SubmitError{Error: "no certified snapshot yet"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// handleTrace answers GET /v1/trace/{txid}: the per-stage commit-path
// waterfall the node's lifecycle tracer recorded for one transaction.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "GET only"})
		return
	}
	if g.cfg.Trace == nil {
		writeJSON(w, http.StatusNotImplemented, rpcapi.SubmitError{Error: "tracing disabled on this node"})
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	txID, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || txID == 0 {
		writeJSON(w, http.StatusBadRequest, rpcapi.SubmitError{Error: "bad tx id: " + raw})
		return
	}
	resp, ok := g.cfg.Trace(txID)
	if !ok {
		writeJSON(w, http.StatusNotFound, rpcapi.SubmitError{Error: "no trace retained for this tx"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "GET only"})
		return
	}
	var resp rpcapi.StatusResponse
	if g.cfg.Status != nil {
		resp = g.cfg.Status()
	}
	resp.Validator = uint32(g.cfg.Validator)
	if g.cfg.LaneStats != nil {
		for _, ls := range g.cfg.LaneStats() {
			resp.MempoolPending += ls.Depth
			resp.MempoolCapacity += ls.Cap
			resp.Lanes = append(resp.Lanes, rpcapi.LaneStatus{
				Lane:      ls.Lane,
				Depth:     ls.Depth,
				Cap:       ls.Cap,
				Submitted: ls.Stats.Submitted,
				Rejected:  ls.Stats.Rejected,
				Drained:   ls.Stats.Drained,
			})
		}
	}
	g.mu.Lock()
	resp.Commits = g.commits
	resp.HistoryOldestSeq = g.ring.oldestSeq()
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleCommits streams commits as Server-Sent Events. ?from=SEQ (or the
// Last-Event-ID header on reconnect) resumes after the given sequence; absent,
// the stream starts at the live tail. A resume point older than the retained
// ring — on connect, or because the subscriber fell behind the ring's bounds
// mid-stream — yields a gap event, then streaming continues from the oldest
// retained commit. A ?full=1 stream also carries checkpoint events: the
// newest quorum certificate on connect and each newer one as the node
// attaches it, after the commits already due. They have no id, so they never
// move a reconnecting client's resume point. A subscriber that stops reading
// is disconnected after streamWriteTimeout.
func (g *Gateway) handleCommits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, rpcapi.SubmitError{Error: "GET only"})
		return
	}
	from, fromSet, err := resumePoint(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, rpcapi.SubmitError{Error: err.Error()})
		return
	}
	// ?full=1 puts the per-commit transaction payloads on the events — the
	// re-execution feed replicas tail. Plain subscribers get none.
	full := r.URL.Query().Get("full") == "1"
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		return // streaming unsupported by this ResponseWriter, or client gone
	}

	// Wake the cond wait when the client goes away. The broadcast must
	// serialize with the handler's check-then-wait under g.mu: a bare
	// broadcast could land in the window between the handler evaluating
	// ctx.Err() and entering Wait, stranding the goroutine (and the dead
	// connection) until the next commit.
	ctx := r.Context()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			g.mu.Lock()
			g.cond.Broadcast()
			g.mu.Unlock()
		case <-watchDone:
		}
	}()

	// batch is reused across wakes and cleared after each write, so a
	// subscriber parked in Wait (or in a blocked write) pins at most
	// streamBatch events' payloads outside the ring's budget.
	batch := make([]rpcapi.CommitEvent, 0, streamBatch)
	g.mu.Lock()
	// A full stream pushes certificates: sentCert is the commit seq of the
	// last one it sent, and certDue says ObserveCheckpoint ran since it last
	// looked (and on connect). Called with g.mu held.
	var sentCert uint64
	seenCheckpoints := g.checkpoints - 1
	certDue := func() bool { return full && seenCheckpoints != g.checkpoints }
	next := g.lastSeq + 1 // live tail by default
	if fromSet {
		next = from + 1
	}
	for {
		for !g.closed && ctx.Err() == nil && g.lastSeq < next && !certDue() {
			g.cond.Wait()
		}
		if g.closed || ctx.Err() != nil {
			g.mu.Unlock()
			return
		}
		// Copy the next slice of the deliverable tail out, then emit without
		// the lock.
		var gapOldest uint64
		batch, gapOldest = g.ring.tail(batch, next, streamBatch, full)
		if len(batch) > 0 {
			next = batch[len(batch)-1].Seq + 1
		}
		pushCert := certDue()
		seenCheckpoints = g.checkpoints
		g.mu.Unlock()

		err := rc.SetWriteDeadline(time.Now().Add(g.writeTimeout))
		if err == nil && gapOldest != 0 {
			// The gap frame's id is Oldest-1: a client reconnecting with
			// Last-Event-ID after seeing only the gap must still receive the
			// commit at Oldest (id semantics are "last seq caught up to").
			err = writeEvent(w, "gap", strconv.FormatUint(gapOldest-1, 10), rpcapi.GapEvent{Oldest: gapOldest})
		}
		for i := 0; err == nil && i < len(batch); i++ {
			if g.cfg.RootAt != nil && batch[i].StateRoot == "" {
				if root, ok := g.cfg.RootAt(batch[i].Seq); ok {
					batch[i].StateRoot = hex.EncodeToString(root[:])
				}
			}
			err = writeEvent(w, "commit", strconv.FormatUint(batch[i].Seq, 10), batch[i])
		}
		if err == nil && pushCert && g.cfg.Checkpoint != nil {
			if cert, ok := g.cfg.Checkpoint(); ok && cert.Meta.CommitSeq > sentCert {
				sentCert = cert.Meta.CommitSeq
				err = writeEvent(w, "checkpoint", "", rpcapi.CertToWire(cert))
			}
		}
		if err == nil {
			err = rc.Flush()
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && g.streamEvictions != nil {
				g.streamEvictions.Inc()
			}
			return
		}
		clear(batch)
		batch = batch[:0]
		g.mu.Lock()
	}
}

// resumePoint parses the stream resume sequence from ?from= or Last-Event-ID.
func resumePoint(r *http.Request) (seq uint64, set bool, err error) {
	raw := r.URL.Query().Get("from")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw == "" {
		return 0, false, nil
	}
	seq, err = strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false, errors.New("bad resume sequence: " + raw)
	}
	return seq, true, nil
}

// writeEvent emits one SSE frame: id (none when empty), event name, JSON
// data.
func writeEvent(w io.Writer, name, id string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}
