package rpc

import (
	"encoding/json"
	"sync"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// TestFullStreamPushesCheckpoints: a ?full=1 stream carries the newest
// checkpoint certificate on connect, after the commits already due, and each
// newer one after ObserveCheckpoint — as frames without an id, so they never
// move a resume point — and never the same one twice. A plain stream carries
// none.
func TestFullStreamPushesCheckpoints(t *testing.T) {
	var mu sync.Mutex
	newest := &checkpoint.Certificate{Meta: checkpoint.Meta{CommitSeq: 2, Round: 4}}
	g, _, exec, base := newTestGateway(t, func(c *Config) {
		c.Checkpoint = func() (*checkpoint.Certificate, bool) {
			mu.Lock()
			defer mu.Unlock()
			return newest, true
		}
	})
	for seq := uint64(1); seq <= 3; seq++ {
		applyCommit(g, exec, seq, types.Round(2*seq))
	}
	full := openStream(t, base, "0&full=1")
	plain := openStream(t, base, "0")
	expect := func(c *sseClient, name string, seq uint64) {
		t.Helper()
		got, id, data := c.frame(t)
		if got != name {
			t.Fatalf("event %q, want %q", got, name)
		}
		switch name {
		case "commit":
			var ev rpcapi.CommitEvent
			if err := json.Unmarshal(data, &ev); err != nil || ev.Seq != seq {
				t.Fatalf("commit %d (%v), want %d", ev.Seq, err, seq)
			}
		case "checkpoint":
			var cert rpcapi.CheckpointCert
			if err := json.Unmarshal(data, &cert); err != nil || cert.CommitSeq != seq {
				t.Fatalf("checkpoint for seq %d (%v), want %d", cert.CommitSeq, err, seq)
			}
			if id != "" {
				t.Fatalf("checkpoint frame carries id %q", id)
			}
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		expect(full, "commit", seq)
		expect(plain, "commit", seq)
	}
	expect(full, "checkpoint", 2)

	mu.Lock()
	newest = &checkpoint.Certificate{Meta: checkpoint.Meta{CommitSeq: 3, Round: 6}}
	mu.Unlock()
	g.ObserveCheckpoint(3)
	expect(full, "checkpoint", 3)

	// Nothing newer: the wake-up sends nothing, and the next frame on either
	// stream is the next commit.
	g.ObserveCheckpoint(3)
	applyCommit(g, exec, 4, 8)
	expect(full, "commit", 4)
	expect(plain, "commit", 4)
}
