// Package client is the Go client for a HammerHead validator's RPC gateway
// (internal/rpc): transaction submission with retry and multi-validator
// failover, committed-KV reads, node status, and a resumable subscription to
// the commit stream. The load generator (cmd/hammerhead-loadgen) and the
// client-load experiment are built on it.
//
// Failover model: the client holds one base URL per validator gateway and
// rotates deterministically — a request that fails at the network layer, or
// that a gateway answers with a 5xx, moves to the next endpoint; 429 (lane
// backpressure) backs off and retries, eventually also rotating, since
// another validator's lane for this client may have headroom. Submissions are
// NOT idempotent across validators (each validator has its own mempool), so a
// retried submit can commit twice; clients that care deduplicate by
// transaction ID, exactly like any at-least-once ingress.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/execution"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// Config parameterizes a Client.
type Config struct {
	// Endpoints are gateway base addresses, one per validator: "host:port" or
	// full "http://host:port" URLs. At least one is required.
	Endpoints []string
	// ClientID names this client for fair admission (the gateway's lane key).
	// Empty lets the gateway fall back to the remote address.
	ClientID string
	// HTTPClient overrides the transport (nil uses a client with sane
	// timeouts for request/response calls; streams strip the timeout).
	HTTPClient *http.Client
	// Attempts bounds the total tries per call across endpoints (0 = twice
	// the endpoint count, so every endpoint is tried at least once with one
	// full failover round).
	Attempts int
	// Backoff is the pause after a 429 before retrying (0 = 50ms). Doubled
	// per consecutive backpressure response, capped at 8x.
	Backoff time.Duration
}

// Client talks to one or more validator gateways. Safe for concurrent use.
type Client struct {
	cfg    Config
	bases  []string
	http   *http.Client
	stream *http.Client
	next   atomic.Uint64
}

// New validates the configuration and builds a client.
func New(cfg Config) (*Client, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("client: at least one endpoint is required")
	}
	bases := make([]string, len(cfg.Endpoints))
	for i, ep := range cfg.Endpoints {
		base := ep
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("client: bad endpoint %q", ep)
		}
		bases[i] = strings.TrimRight(base, "/")
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2 * len(bases)
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	httpClient := cfg.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	// The stream client must not carry a global timeout: an SSE subscription
	// is supposed to stay open. Share the transport, drop the deadline.
	streamClient := &http.Client{Transport: httpClient.Transport}
	return &Client{cfg: cfg, bases: bases, http: httpClient, stream: streamClient}, nil
}

// Endpoints returns the normalized base URLs.
func (c *Client) Endpoints() []string { return append([]string(nil), c.bases...) }

// errBackpressure marks a 429 so the retry loop can back off instead of
// failing over immediately.
type errBackpressure struct{ resp rpcapi.SubmitResponse }

func (errBackpressure) Error() string { return "client: gateway backpressure (429)" }

// do runs one call with rotation and retry. fn performs the request against a
// base URL and reports a retryable error to move on.
func (c *Client) do(ctx context.Context, fn func(base string) error) error {
	start := c.next.Add(1) - 1
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		base := c.bases[(start+uint64(attempt))%uint64(len(c.bases))]
		err := fn(base)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.As(err, &errBackpressure{}) {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff < 8*c.cfg.Backoff {
				backoff *= 2
			}
		}
	}
	return lastErr
}

func (c *Client) getJSON(ctx context.Context, base, path string, out any, okStatuses ...int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	allowed := false
	for _, s := range okStatuses {
		if resp.StatusCode == s {
			allowed = true
		}
	}
	if !allowed {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("client: %s%s: status %d: %s", base, path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts one batch of raw transaction payloads, assigning IDs is left
// to the gateway. See SubmitTxs for explicit IDs.
func (c *Client) Submit(ctx context.Context, payloads ...[]byte) (rpcapi.SubmitResponse, error) {
	txs := make([]rpcapi.SubmitTx, len(payloads))
	for i, p := range payloads {
		txs[i] = rpcapi.SubmitTx{Payload: p}
	}
	return c.SubmitTxs(ctx, txs)
}

// SubmitTxs posts one batch of transactions, failing over across endpoints
// and backing off on lane backpressure. The returned response is the first
// gateway answer that admitted at least one transaction (or the final
// rejection once attempts are exhausted).
func (c *Client) SubmitTxs(ctx context.Context, txs []rpcapi.SubmitTx) (rpcapi.SubmitResponse, error) {
	body, err := json.Marshal(rpcapi.SubmitRequest{Client: c.cfg.ClientID, Txs: txs})
	if err != nil {
		return rpcapi.SubmitResponse{}, err
	}
	var out rpcapi.SubmitResponse
	err = c.do(ctx, func(base string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/tx", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.cfg.ClientID != "" {
			req.Header.Set("X-Client-ID", c.cfg.ClientID)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return json.NewDecoder(resp.Body).Decode(&out)
		case http.StatusTooManyRequests:
			var rejected rpcapi.SubmitResponse
			_ = json.NewDecoder(resp.Body).Decode(&rejected)
			return errBackpressure{resp: rejected}
		default:
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("client: %s/v1/tx: status %d: %s", base, resp.StatusCode, raw)
		}
	})
	if err != nil {
		var bp errBackpressure
		if errors.As(err, &bp) {
			// Surface the gateway's per-tx rejection detail alongside the error.
			return bp.resp, err
		}
		return rpcapi.SubmitResponse{}, err
	}
	return out, nil
}

// Get reads a key from the committed KV ledger, failing over across
// endpoints. Missing keys return Found=false with a nil error — the cursor
// fields still report where the read landed.
func (c *Client) Get(ctx context.Context, key []byte) (rpcapi.KVResponse, error) {
	var out rpcapi.KVResponse
	err := c.do(ctx, func(base string) error {
		return c.getJSON(ctx, base, "/v1/kv/"+url.PathEscape(string(key)), &out,
			http.StatusOK, http.StatusNotFound)
	})
	return out, err
}

// GetAt reads a key from one specific endpoint (index into Endpoints) — the
// cross-validator convergence checks read the same key everywhere and compare
// state roots.
func (c *Client) GetAt(ctx context.Context, endpoint int, key []byte) (rpcapi.KVResponse, error) {
	var out rpcapi.KVResponse
	base := c.bases[endpoint%len(c.bases)]
	err := c.getJSON(ctx, base, "/v1/kv/"+url.PathEscape(string(key)), &out,
		http.StatusOK, http.StatusNotFound)
	return out, err
}

// Status reads one validator's /v1/status (failing over across endpoints).
func (c *Client) Status(ctx context.Context) (rpcapi.StatusResponse, error) {
	var out rpcapi.StatusResponse
	err := c.do(ctx, func(base string) error {
		return c.getJSON(ctx, base, "/v1/status", &out, http.StatusOK)
	})
	return out, err
}

// StatusAt reads a specific endpoint's status.
func (c *Client) StatusAt(ctx context.Context, endpoint int) (rpcapi.StatusResponse, error) {
	var out rpcapi.StatusResponse
	err := c.getJSON(ctx, c.bases[endpoint%len(c.bases)], "/v1/status", &out, http.StatusOK)
	return out, err
}

// Trace fetches a transaction's commit-path waterfall (GET
// /v1/trace/{txid}), failing over across endpoints. Every validator that
// committed the transaction holds at least the commit-side stages; the one
// that admitted it holds the full waterfall — use TraceAt to interrogate a
// specific node when completeness matters.
func (c *Client) Trace(ctx context.Context, txID uint64) (rpcapi.TraceResponse, error) {
	var out rpcapi.TraceResponse
	err := c.do(ctx, func(base string) error {
		return c.getJSON(ctx, base, "/v1/trace/"+strconv.FormatUint(txID, 10), &out, http.StatusOK)
	})
	return out, err
}

// TraceAt fetches one specific endpoint's trace for a transaction. A 404
// (trace evicted or never seen there) returns an error.
func (c *Client) TraceAt(ctx context.Context, endpoint int, txID uint64) (rpcapi.TraceResponse, error) {
	var out rpcapi.TraceResponse
	err := c.getJSON(ctx, c.bases[endpoint%len(c.bases)],
		"/v1/trace/"+strconv.FormatUint(txID, 10), &out, http.StatusOK)
	return out, err
}

// Checkpoint fetches the newest quorum checkpoint certificate a gateway
// holds (failing over across endpoints). The wire form is returned as-is;
// use rpcapi.CertFromWire + Verifier to vet it.
func (c *Client) Checkpoint(ctx context.Context) (rpcapi.CheckpointCert, error) {
	var out rpcapi.CheckpointCert
	err := c.do(ctx, func(base string) error {
		return c.getJSON(ctx, base, "/v1/checkpoint", &out, http.StatusOK)
	})
	return out, err
}

// CheckpointAt fetches one specific endpoint's newest certificate.
func (c *Client) CheckpointAt(ctx context.Context, endpoint int) (rpcapi.CheckpointCert, error) {
	var out rpcapi.CheckpointCert
	err := c.getJSON(ctx, c.bases[endpoint%len(c.bases)], "/v1/checkpoint", &out, http.StatusOK)
	return out, err
}

// ErrNoSnapshot reports that no endpoint holds a certified snapshot yet —
// normal early in a cluster's life; callers retry after a backoff.
var ErrNoSnapshot = errors.New("client: no certified snapshot available yet")

// SnapshotAt fetches the raw certified snapshot blob one specific endpoint
// (index into Endpoints) serves on /v1/snapshot; ErrNoSnapshot when it holds
// none yet. The blob is the execution snapshot wire format, certificate
// embedded; decode with execution.DecodeSnapshot and verify the certificate
// before restoring.
func (c *Client) SnapshotAt(ctx context.Context, endpoint int) ([]byte, error) {
	base := c.bases[endpoint%len(c.bases)]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return io.ReadAll(resp.Body)
	case http.StatusNotFound:
		return nil, ErrNoSnapshot
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("client: %s/v1/snapshot: status %d: %s", base, resp.StatusCode, body)
	}
}

// Verifier holds the committee trust anchor a client checks quorum
// certificates against: the stake distribution and each validator's public
// key. With one, reads verify end-to-end with zero trust in the serving node
// — including a non-voting replica. Its fields must not change once it is in
// use; it is safe for concurrent use.
type Verifier struct {
	Committee  *types.Committee
	PublicKeys []crypto.PublicKey
	Scheme     crypto.Scheme

	// recent holds copies of the last certificates that verified, oldest
	// overwritten first: the reads of a busy client mostly land on the few
	// newest checkpoints, so one certificate's signatures are checked once,
	// not once per read.
	mu     sync.Mutex
	recent [recentCerts]*checkpoint.Certificate // guarded by mu
	next   int                                  // guarded by mu
}

// recentCerts is how many verified certificates a Verifier remembers. A
// checkpoint can come as several certificates — each validator assembles its
// own quorum of shares — so this covers the last few checkpoints of a
// committee of four.
const recentCerts = 8

// VerifyCert checks a certificate's signatures and quorum stake. A
// certificate identical to one that verified recently — the same Meta, and
// the same signers with the same signature bytes — is accepted without a
// second check; any other is verified.
func (v *Verifier) VerifyCert(cert *checkpoint.Certificate) error {
	if v.verifiedBefore(cert) {
		return nil
	}
	if err := cert.Verify(v.Committee, v.PublicKeys, v.Scheme); err != nil {
		return err
	}
	v.remember(cert)
	return nil
}

func (v *Verifier) verifiedBefore(cert *checkpoint.Certificate) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, c := range v.recent {
		if c != nil && c.Equal(cert) {
			return true
		}
	}
	return false
}

// remember keeps a deep copy of a certificate that verified: the caller
// owns cert and may change its signature bytes afterwards.
func (v *Verifier) remember(cert *checkpoint.Certificate) {
	c := &checkpoint.Certificate{Meta: cert.Meta, Sigs: make([]checkpoint.Sig, len(cert.Sigs))}
	for i, s := range cert.Sigs {
		c.Sigs[i] = checkpoint.Sig{Validator: s.Validator, Signature: bytes.Clone(s.Signature)}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.recent[v.next] = c
	v.next = (v.next + 1) % len(v.recent)
}

// VerifiedRead is the outcome of a proof-checked read: the value (or proven
// absence) under the quorum-certified checkpoint the certificate names.
type VerifiedRead struct {
	Value   []byte
	Version uint64
	Found   bool
	// Cert is the verified certificate the proof was checked against;
	// Cert.Meta.CommitSeq is the certified sequence the read is valid at.
	Cert *checkpoint.Certificate
}

// VerifiedGet performs a proof-carrying read (GET /v1/kv/{key}?proof=1) and
// verifies everything client-side: the certificate's 2f+1 signatures against
// the Verifier's committee, the Merkle proof's fold to a root, and that root
// + state counters reproducing exactly the certified state digest. Nothing
// the serving node returns is trusted — a forged value, proof or certificate
// fails with an error. Missing keys return Found=false with a nil error
// (provable absence). Fails over across endpoints.
func (c *Client) VerifiedGet(ctx context.Context, v *Verifier, key []byte) (VerifiedRead, error) {
	var out VerifiedRead
	err := c.do(ctx, func(base string) error {
		var err error
		out, err = c.verifiedGet(ctx, base, v, key)
		return err
	})
	return out, err
}

// Freshness bounds how stale a verified read may be. Zero values place no
// bound on that dimension.
type Freshness struct {
	// MinCommitSeq is the lowest acceptable certified commit sequence: the
	// read-your-writes bound a caller derives from a commit-stream event or a
	// previous read's Cert.Meta.CommitSeq.
	MinCommitSeq uint64
	// MinRound is the lowest acceptable certified DAG round.
	MinRound types.Round
}

// ErrStaleRead reports a cryptographically valid answer whose certificate is
// older than the caller's freshness bound — the serving node (typically a
// lagging read replica) has not caught up yet.
var ErrStaleRead = errors.New("client: certified read is older than the freshness bound")

func (f Freshness) check(cert *checkpoint.Certificate) error {
	if cert.Meta.CommitSeq < f.MinCommitSeq {
		return fmt.Errorf("%w: certified commit_seq %d < required %d",
			ErrStaleRead, cert.Meta.CommitSeq, f.MinCommitSeq)
	}
	if cert.Meta.Round < f.MinRound {
		return fmt.Errorf("%w: certified round %d < required %d",
			ErrStaleRead, cert.Meta.Round, f.MinRound)
	}
	return nil
}

// VerifiedGetFresh is VerifiedGet with a max-staleness SLA: after the proof
// and certificate verify, the certified checkpoint must also satisfy fresh,
// or the answer is rejected with ErrStaleRead and the client fails over —
// another validator or replica may hold a newer certified checkpoint. The
// staleness check runs only on proofs that already verified, so a malicious
// node cannot satisfy the bound by inventing a higher sequence.
func (c *Client) VerifiedGetFresh(ctx context.Context, v *Verifier, key []byte, fresh Freshness) (VerifiedRead, error) {
	var out VerifiedRead
	err := c.do(ctx, func(base string) error {
		r, err := c.verifiedGet(ctx, base, v, key)
		if err != nil {
			return err
		}
		if err := fresh.check(r.Cert); err != nil {
			return err
		}
		out = r
		return nil
	})
	return out, err
}

// VerifiedGetAt is VerifiedGet against one specific endpoint (index into
// Endpoints) — convergence checks interrogate each node, replicas included.
func (c *Client) VerifiedGetAt(ctx context.Context, endpoint int, v *Verifier, key []byte) (VerifiedRead, error) {
	return c.verifiedGet(ctx, c.bases[endpoint%len(c.bases)], v, key)
}

func (c *Client) verifiedGet(ctx context.Context, base string, v *Verifier, key []byte) (VerifiedRead, error) {
	var resp rpcapi.KVProofResponse
	if err := c.getJSON(ctx, base, "/v1/kv/"+url.PathEscape(string(key))+"?proof=1", &resp,
		http.StatusOK, http.StatusNotFound); err != nil {
		return VerifiedRead{}, err
	}
	cert, err := rpcapi.CertFromWire(resp.Cert)
	if err != nil {
		return VerifiedRead{}, err
	}
	if err := v.VerifyCert(cert); err != nil {
		return VerifiedRead{}, fmt.Errorf("client: certificate rejected: %w", err)
	}
	proof, err := rpcapi.ProofFromWire(resp.Leaf, resp.Steps)
	if err != nil {
		return VerifiedRead{}, err
	}
	root, entry, err := proof.Verify(key)
	if err != nil {
		return VerifiedRead{}, fmt.Errorf("client: proof rejected: %w", err)
	}
	if execution.StateDigestFrom(resp.StateVersion, resp.StateOpaque, root) != cert.Meta.StateDigest {
		return VerifiedRead{}, errors.New("client: proof root does not reproduce the certified state digest")
	}
	return VerifiedRead{
		Value:   entry.Value,
		Version: entry.Version,
		Found:   entry.Found,
		Cert:    cert,
	}, nil
}

// CommitHandler observes one commit-stream event. Returning an error stops
// the stream and is returned from StreamCommits.
type CommitHandler func(ev rpcapi.CommitEvent) error

// CheckpointHandler observes one checkpoint certificate a full stream pushes,
// exactly as the gateway sent it: nothing about it is verified yet (use
// rpcapi.CertFromWire and a Verifier). Returning an error stops the stream,
// like a CommitHandler's.
type CheckpointHandler func(cert rpcapi.CheckpointCert) error

// StreamCommits subscribes to the commit stream, resuming after fromSeq
// (0 starts at the live tail of the first connection). The subscription
// reconnects with failover on broken streams, resuming from the last seen
// sequence, until ctx is done or the handler errors. Gap events (history aged
// out of the gateway's ring) are folded in transparently: streaming continues
// from the oldest retained commit.
func (c *Client) StreamCommits(ctx context.Context, fromSeq uint64, fn CommitHandler) error {
	return c.streamCommits(ctx, fromSeq, false, fn, nil)
}

// StreamCommitsFull is StreamCommits with ?full=1: events carry the commit
// digest and the full transaction payloads in application order — the
// re-execution feed read replicas tail — and the gateway pushes its newest
// checkpoint certificate to onCert (nil skips them): on every connect, then
// each newer one as the node attaches it.
func (c *Client) StreamCommitsFull(ctx context.Context, fromSeq uint64, fn CommitHandler, onCert CheckpointHandler) error {
	return c.streamCommits(ctx, fromSeq, true, fn, onCert)
}

func (c *Client) streamCommits(ctx context.Context, fromSeq uint64, full bool, fn CommitHandler, onCert CheckpointHandler) error {
	last := fromSeq
	seen := fromSeq > 0
	endpoint := int(c.next.Add(1) - 1)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		base := c.bases[endpoint%len(c.bases)]
		err := c.streamOnce(ctx, base, full, &last, &seen, fn, onCert)
		switch {
		case err == nil:
			return nil // handler asked to stop
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return err
		}
		var stop errStopStream
		if errors.As(err, &stop) {
			return stop.err
		}
		// Broken stream: fail over and resume from the last seen sequence.
		endpoint++
		select {
		case <-time.After(c.cfg.Backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// errStopStream wraps a handler error (terminal, no reconnect).
type errStopStream struct{ err error }

func (e errStopStream) Error() string { return e.err.Error() }

// streamOnce runs a single SSE connection until it breaks (error) or the
// handler stops it (nil).
func (c *Client) streamOnce(ctx context.Context, base string, full bool, last *uint64, seen *bool, fn CommitHandler, onCert CheckpointHandler) error {
	params := url.Values{}
	if *seen {
		params.Set("from", strconv.FormatUint(*last, 10))
	}
	if full {
		params.Set("full", "1")
	}
	path := base + "/v1/commits"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s: stream status %d", path, resp.StatusCode)
	}
	reader := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	for {
		line, err := reader.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && data != nil:
			switch event {
			case "commit":
				var ev rpcapi.CommitEvent
				if err := json.Unmarshal(data, &ev); err == nil {
					*last, *seen = ev.Seq, true
					if err := fn(ev); err != nil {
						return errStopStream{err: err}
					}
				}
			case "checkpoint":
				var cert rpcapi.CheckpointCert
				if err := json.Unmarshal(data, &cert); err == nil && onCert != nil {
					if err := onCert(cert); err != nil {
						return errStopStream{err: err}
					}
				}
			}
			// Gap events only move the resume cursor implicitly: the next
			// commit event's Seq does that for us. Unknown events are skipped.
			event, data = "", nil
		}
	}
}

// PutPayload encodes a KV put for the built-in execution state machine.
func PutPayload(key, value []byte) []byte { return execution.PutOp(key, value) }

// DeletePayload encodes a KV delete.
func DeletePayload(key []byte) []byte { return execution.DeleteOp(key) }
