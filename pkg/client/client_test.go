package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hammerhead/pkg/rpcapi"
)

// stubGateway is a minimal in-memory gateway speaking the rpc wire protocol.
type stubGateway struct {
	submits  atomic.Uint64
	rejectN  atomic.Int64 // first N submit calls answer 429
	statusID uint32
}

func (s *stubGateway) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tx", func(w http.ResponseWriter, r *http.Request) {
		n := s.submits.Add(1)
		var req rpcapi.SubmitRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		if int64(n) <= s.rejectN.Load() {
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(rpcapi.SubmitResponse{Rejected: len(req.Txs)})
			return
		}
		_ = json.NewEncoder(w).Encode(rpcapi.SubmitResponse{Accepted: len(req.Txs)})
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(rpcapi.StatusResponse{Validator: s.statusID, Round: 5})
	})
	mux.HandleFunc("/v1/kv/", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(rpcapi.KVResponse{Key: []byte("k"), Value: []byte("v"), Found: true, AppliedSeq: 3})
	})
	mux.HandleFunc("/v1/commits", func(w http.ResponseWriter, r *http.Request) {
		from := uint64(0)
		fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)
		flusher := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		for seq := from + 1; seq <= from+3; seq++ {
			data, _ := json.Marshal(rpcapi.CommitEvent{Seq: seq, Round: seq * 2, TxCount: 1})
			fmt.Fprintf(w, "id: %d\nevent: commit\ndata: %s\n\n", seq, data)
		}
		if r.URL.Query().Get("full") == "1" {
			// A full stream pushes the newest certificate (no id) and may
			// carry events this client does not know.
			data, _ := json.Marshal(rpcapi.CheckpointCert{CommitSeq: from + 2})
			fmt.Fprintf(w, "event: checkpoint\ndata: %s\n\n", data)
			fmt.Fprintf(w, "event: from-the-future\ndata: {}\n\n")
		}
		flusher.Flush()
		// Break the stream after three events: the client must reconnect and
		// resume from the last seen sequence.
	})
	return mux
}

func TestClientFailoverToLiveEndpoint(t *testing.T) {
	gw := &stubGateway{statusID: 2}
	live := httptest.NewServer(gw.handler())
	defer live.Close()
	// A dead endpoint: reserve a port, then close the listener.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c, err := New(Config{Endpoints: []string{deadURL, live.URL}, ClientID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit(context.Background(), []byte("p1"), []byte("p2"))
	if err != nil {
		t.Fatalf("submit with one dead endpoint: %v", err)
	}
	if resp.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2", resp.Accepted)
	}
	st, err := c.Status(context.Background())
	if err != nil || st.Validator != 2 {
		t.Fatalf("status = %+v err %v", st, err)
	}
	kv, err := c.Get(context.Background(), []byte("k"))
	if err != nil || !kv.Found || string(kv.Value) != "v" {
		t.Fatalf("get = %+v err %v", kv, err)
	}
}

func TestClientBackoffOn429ThenSucceeds(t *testing.T) {
	gw := &stubGateway{}
	gw.rejectN.Store(2) // first two submit calls bounce
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	c, err := New(Config{Endpoints: []string{srv.URL}, Backoff: time.Millisecond, Attempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit(context.Background(), []byte("p"))
	if err != nil {
		t.Fatalf("submit through backpressure: %v", err)
	}
	if resp.Accepted != 1 || gw.submits.Load() != 3 {
		t.Fatalf("accepted = %d after %d attempts, want 1 after 3", resp.Accepted, gw.submits.Load())
	}
}

func TestClientExhaustedBackpressureReturnsError(t *testing.T) {
	gw := &stubGateway{}
	gw.rejectN.Store(1000)
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	c, err := New(Config{Endpoints: []string{srv.URL}, Backoff: time.Millisecond, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit(context.Background(), []byte("p"))
	if err == nil {
		t.Fatal("exhausted retries must error")
	}
	if !errors.As(err, &errBackpressure{}) {
		t.Fatalf("err = %v, want backpressure", err)
	}
	if resp.Rejected != 1 {
		t.Fatalf("rejection detail lost: %+v", resp)
	}
}

func TestClientStreamResumesAcrossReconnects(t *testing.T) {
	gw := &stubGateway{}
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	c, err := New(Config{Endpoints: []string{srv.URL}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seqs []uint64
	wantStop := errors.New("enough")
	err = c.StreamCommits(ctx, 0, func(ev rpcapi.CommitEvent) error {
		seqs = append(seqs, ev.Seq)
		if len(seqs) == 7 {
			return wantStop
		}
		return nil
	})
	if !errors.Is(err, wantStop) {
		t.Fatalf("stream err = %v, want handler stop", err)
	}
	// Each connection serves 3 events then breaks; the client must resume
	// 1..3, 4..6, 7 without duplicates or holes.
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seqs = %v: duplicates or holes across reconnects", seqs)
		}
	}
}

func TestClientRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no endpoints must fail")
	}
	if _, err := New(Config{Endpoints: []string{"://bad"}}); err == nil {
		t.Fatal("bad endpoint must fail")
	}
}

// TestClientFullStreamDeliversCheckpoints: StreamCommitsFull hands pushed
// certificates to its checkpoint handler, in stream order, without moving
// the resume point, skips events it does not know, and stops when the
// checkpoint handler errors.
func TestClientFullStreamDeliversCheckpoints(t *testing.T) {
	gw := &stubGateway{}
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()
	c, err := New(Config{Endpoints: []string{srv.URL}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var log []string
	wantStop := errors.New("enough")
	err = c.StreamCommitsFull(ctx, 0, func(ev rpcapi.CommitEvent) error {
		log = append(log, fmt.Sprintf("c%d", ev.Seq))
		return nil
	}, func(cert rpcapi.CheckpointCert) error {
		log = append(log, fmt.Sprintf("k%d", cert.CommitSeq))
		if len(log) == 8 {
			return wantStop
		}
		return nil
	})
	if !errors.Is(err, wantStop) {
		t.Fatalf("stream err = %v, want the checkpoint handler's stop", err)
	}
	if got := fmt.Sprint(log); got != "[c1 c2 c3 k2 c4 c5 c6 k5]" {
		t.Fatalf("stream delivered %s", got)
	}
}
