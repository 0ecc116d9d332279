package engine

import (
	"testing"

	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// buildCertTrace returns certificates for full rounds 1..rounds of an
// n-validator committee in parents-first order: every header references all
// of the previous round's vertices. Unsigned — for VerifySignatures=false
// engines — but carrying a full quorum of voter IDs.
func buildCertTrace(tb testing.TB, committee *types.Committee, rounds types.Round) []*Certificate {
	tb.Helper()
	n := committee.Size()
	prev := make([]types.Digest, 0, n)
	for i := 0; i < n; i++ {
		prev = append(prev, dag.NewVertex(0, types.ValidatorID(i), nil, nil, 0).Digest())
	}
	var certs []*Certificate
	for r := types.Round(1); r <= rounds; r++ {
		cur := make([]types.Digest, 0, n)
		for i := 0; i < n; i++ {
			c := &Certificate{Header: Header{
				Round:  r,
				Source: types.ValidatorID(i),
				Edges:  append([]types.Digest(nil), prev...),
			}}
			for j := 0; j < n; j++ {
				c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(j)})
			}
			cur = append(cur, c.Digest())
			certs = append(certs, c)
		}
		prev = cur
	}
	return certs
}

// newTraceEngine builds a single engine with signature verification off (so
// buildCertTrace certificates are accepted), the given pipeline depth, and a
// commit collector.
func newTraceEngine(tb testing.TB, committee *types.Committee, mutate func(*Config)) (*Engine, *commitCollector) {
	tb.Helper()
	return newTraceEngineWith(tb, committee, nilBatches{}, mutate)
}

// newTraceEngineWith is newTraceEngine drawing its own headers' batches from
// the given provider.
func newTraceEngineWith(tb testing.TB, committee *types.Committee, batches BatchProvider, mutate func(*Config)) (*Engine, *commitCollector) {
	tb.Helper()
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = false
	if mutate != nil {
		mutate(&cfg)
	}
	collector := &commitCollector{}
	eng, err := New(Params{
		Config:    cfg,
		Committee: committee,
		Self:      0,
		Keys:      kp,
		Batches:   batches,
		Scheduler: leader.NewRoundRobin(committee, 1),
		DAG:       dag.New(committee),
		Commits:   collector,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, collector
}

func feedCerts(eng *Engine, certs []*Certificate) {
	for _, c := range certs {
		msg := &Message{Kind: KindCertificate, Cert: c}
		eng.OnMessage(1, msg.Clone(), 0)
	}
}

func assertSameCommits(t *testing.T, want, got *commitCollector) {
	t.Helper()
	a, b := want.subs, got.subs
	if len(a) == 0 {
		t.Fatal("trace produced no commits; test is vacuous")
	}
	if len(a) != len(b) {
		t.Fatalf("commit counts differ: serial %d, pipelined %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Direct != b[i].Direct ||
			a[i].Anchor.Digest() != b[i].Anchor.Digest() {
			t.Fatalf("commit %d differs: serial (idx=%d r=%d %s direct=%v), pipelined (idx=%d r=%d %s direct=%v)",
				i, a[i].Index, a[i].Anchor.Round, a[i].Anchor.Source, a[i].Direct,
				b[i].Index, b[i].Anchor.Round, b[i].Anchor.Source, b[i].Direct)
		}
		if len(a[i].Vertices) != len(b[i].Vertices) {
			t.Fatalf("commit %d sub-DAG sizes differ: %d vs %d", i, len(a[i].Vertices), len(b[i].Vertices))
		}
		for j := range a[i].Vertices {
			if a[i].Vertices[j].Digest() != b[i].Vertices[j].Digest() {
				t.Fatalf("commit %d vertex %d differs", i, j)
			}
		}
	}
}

// TestPipelinedCommitsMatchSerial is the determinism contract at engine
// level: the same certificate insertion sequence produces a byte-identical
// commit stream whether the committer runs inline or on the order stage —
// including with a tiny queue that forces ingest to block on backpressure.
func TestPipelinedCommitsMatchSerial(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTrace(t, committee, 40)

	serial, serialC := newTraceEngine(t, committee, nil)
	feedCerts(serial, trace)
	serial.Flush() // no-op; symmetry

	for _, depth := range []int{2, 64} {
		pipelined, pipelinedC := newTraceEngine(t, committee, func(c *Config) { c.PipelineDepth = depth })
		feedCerts(pipelined, trace)
		pipelined.Flush()
		pipelined.Close()
		assertSameCommits(t, serialC, pipelinedC)
	}
}

// TestPipelineFlushAndCloseLifecycle exercises Flush/Close edge cases:
// double Close, Flush after Close, Close draining queued vertices.
func TestPipelineFlushAndCloseLifecycle(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTrace(t, committee, 10)
	eng, collector := newTraceEngine(t, committee, func(c *Config) { c.PipelineDepth = 4 })
	feedCerts(eng, trace)
	eng.Close() // drains queued vertices before stopping
	eng.Close() // idempotent
	eng.Flush() // must not hang after Close
	if len(collector.subs) == 0 {
		t.Fatal("Close must drain queued vertices into commits")
	}
	if eng.PipelineBacklog() != 0 {
		t.Fatalf("backlog after Close = %d, want 0", eng.PipelineBacklog())
	}
}

// TestPendingStateGarbageCollected is the regression test for the pending
// leak: a certificate whose parent edge never resolves (a Byzantine header
// with a fabricated edge — voters never check edges, so it certifies) must
// not survive garbage collection once the commit floor passes its round.
func TestPendingStateGarbageCollected(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 16} {
		eng, collector := newTraceEngine(t, committee, func(c *Config) {
			c.PipelineDepth = depth
			c.GCDepth = 4
			c.GCEvery = 4
		})
		// Ghost-parent certificate at round 2: one edge that exists nowhere.
		ghost := &Certificate{Header: Header{
			Round:  2,
			Source: 3,
			Edges:  []types.Digest{types.HashBytes([]byte("no such parent"))},
		}}
		for j := 0; j < 4; j++ {
			ghost.Votes = append(ghost.Votes, VoteSig{Voter: types.ValidatorID(j)})
		}
		eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: ghost}, 0)
		if p, m, r := eng.SyncBacklog(); p != 1 || m != 1 || r != 1 {
			t.Fatalf("ghost cert must pend: backlog = (%d,%d,%d)", p, m, r)
		}

		// Drive enough honest rounds that the GC floor passes round 2.
		feedCerts(eng, buildCertTrace(t, committee, 60))
		eng.Flush()
		if depth > 0 {
			// Pipelined: the ingest stage prunes on the next insert after the
			// stage published a floor; one more round supplies the inserts.
			feedCerts(eng, certTraceRounds(t, committee, 61, 61))
			eng.Flush()
		}
		eng.Close()

		if len(collector.subs) == 0 {
			t.Fatal("honest trace must commit")
		}
		if p, m, r := eng.SyncBacklog(); p != 0 || m != 0 || r != 0 {
			t.Fatalf("depth %d: pending state leaked past GC: backlog = (%d,%d,%d)", depth, p, m, r)
		}
		if eng.maxPendingRound != 0 {
			// A stale high-water mark would keep maybeRangeSync firing (and
			// peers answering with full sync batches) forever.
			t.Fatalf("depth %d: maxPendingRound stuck at %d after prune", depth, eng.maxPendingRound)
		}
	}
}

// certTraceRounds extends buildCertTrace for a sub-range [from, to],
// reconstructing parent digests deterministically.
func certTraceRounds(tb testing.TB, committee *types.Committee, from, to types.Round) []*Certificate {
	tb.Helper()
	all := buildCertTrace(tb, committee, to)
	n := types.Round(committee.Size())
	return all[(from-1)*n:]
}

// TestCertFloorDropsStaleCertificates: certificates below the GC floor are
// dropped on arrival instead of parked in the pending maps forever.
func TestCertFloorDropsStaleCertificates(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, func(c *Config) {
		c.GCDepth = 4
		c.GCEvery = 4
	})
	feedCerts(eng, buildCertTrace(t, committee, 60))
	before := eng.Stats().CertsReceived
	// A ghost cert at round 1, far below the floor by now.
	stale := &Certificate{Header: Header{
		Round:  1,
		Source: 2,
		Edges:  []types.Digest{types.HashBytes([]byte("ghost"))},
	}}
	for j := 0; j < 4; j++ {
		stale.Votes = append(stale.Votes, VoteSig{Voter: types.ValidatorID(j)})
	}
	eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: stale}, 0)
	if p, m, r := eng.SyncBacklog(); p+m+r != 0 {
		t.Fatalf("below-floor cert must be dropped, backlog = (%d,%d,%d)", p, m, r)
	}
	if eng.Stats().CertsReceived != before {
		t.Fatal("below-floor cert must not count as received")
	}
}

// TestPendingEvictionBoundsFlood: an attacker fabricating ghost-parent
// certificates at arbitrary future rounds cannot grow pending state past
// MaxPendingCerts.
func TestPendingEvictionBoundsFlood(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 32
	eng, _ := newTraceEngine(t, committee, func(c *Config) { c.MaxPendingCerts = cap })
	for i := 0; i < 4*cap; i++ {
		ghost := &Certificate{Header: Header{
			Round:  types.Round(100 + i), // far future, never insertable
			Source: 3,
			Edges:  []types.Digest{types.HashBytes([]byte{byte(i), byte(i >> 8), 0xFF})},
		}}
		for j := 0; j < 4; j++ {
			ghost.Votes = append(ghost.Votes, VoteSig{Voter: types.ValidatorID(j)})
		}
		eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: ghost}, int64(i))
	}
	if p, _, _ := eng.SyncBacklog(); p > cap {
		t.Fatalf("pending certs = %d, want <= %d", p, cap)
	}
}

// TestRoundRequestServedFromIndex checks the per-round index path: ascending
// rounds, source order within a round, MaxSyncBatch cap, floor clamping, and
// that requests from self are ignored.
func TestRoundRequestServedFromIndex(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, func(c *Config) { c.MaxSyncBatch = 10 })
	feedCerts(eng, buildCertTrace(t, committee, 8))

	out := &Output{}
	eng.onRoundRequest(2, &RoundRequest{FromRound: 3}, out)
	if len(out.Unicasts) != 1 || out.Unicasts[0].To != 2 {
		t.Fatalf("want one response to v2, got %+v", out.Unicasts)
	}
	certs := out.Unicasts[0].Msg.CertResponse.Certs
	if len(certs) != 10 {
		t.Fatalf("batch = %d certs, want capped at 10", len(certs))
	}
	for i, c := range certs {
		wantRound := types.Round(3 + i/4)
		wantSource := types.ValidatorID(i % 4)
		if c.Header.Round != wantRound || c.Header.Source != wantSource {
			t.Fatalf("cert %d = (r=%d src=%s), want (r=%d src=%s)",
				i, c.Header.Round, c.Header.Source, wantRound, wantSource)
		}
	}

	// Self-addressed requests are ignored (they would be a bug upstream).
	out = &Output{}
	eng.onRoundRequest(0, &RoundRequest{FromRound: 0}, out)
	if len(out.Unicasts) != 0 {
		t.Fatal("round request from self must be ignored")
	}
}
