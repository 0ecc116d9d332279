package engine

import (
	"slices"
	"testing"

	"hammerhead/internal/dag"
	"hammerhead/internal/types"
)

// queueBatches is a BatchProvider handing out a preloaded queue in order.
type queueBatches struct{ txs []types.Transaction }

func (q *queueBatches) NextBatch(_ int64, maxTx int) *types.Batch {
	n := min(maxTx, len(q.txs))
	if n <= 0 {
		return nil
	}
	b := &types.Batch{Transactions: q.txs[:n:n]}
	q.txs = q.txs[n:]
	return b
}

func (q *queueBatches) Pending() int { return len(q.txs) }

func txRange(from, to uint64) []types.Transaction {
	var txs []types.Transaction
	for id := from; id <= to; id++ {
		txs = append(txs, types.Transaction{ID: id})
	}
	return txs
}

func batchIDs(b *types.Batch) []uint64 {
	if b == nil {
		return nil
	}
	ids := make([]uint64, len(b.Transactions))
	for i, tx := range b.Transactions {
		ids[i] = tx.ID
	}
	return ids
}

// peerRounds returns unsigned certificates (for VerifySignatures=false
// engines) of validators 1..n-1 for rounds from..to, indexed by round: the
// committee advancing without validator 0. Every header references all of
// its peers' previous-round vertices (all of genesis at round 1).
func peerRounds(committee *types.Committee, from, to types.Round) map[types.Round][]*Certificate {
	n := committee.Size()
	var prev []types.Digest
	for i := 0; i < n; i++ {
		prev = append(prev, dag.NewVertex(0, types.ValidatorID(i), nil, nil, 0).Digest())
	}
	rounds := make(map[types.Round][]*Certificate)
	for r := types.Round(1); r <= to; r++ {
		var cur []types.Digest
		for i := 1; i < n; i++ {
			c := &Certificate{Header: Header{Round: r, Source: types.ValidatorID(i), Edges: prev}}
			for j := 1; j < n; j++ {
				c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(j)})
			}
			cur = append(cur, c.Digest())
			if r >= from {
				rounds[r] = append(rounds[r], c)
			}
		}
		prev = cur
	}
	return rounds
}

// proposedIn returns the header an engine step broadcast, or nil.
func proposedIn(out *Output) *Header {
	for _, m := range out.Broadcasts {
		if m.Kind == KindHeader {
			return m.Header
		}
	}
	return nil
}

// deliver feeds certificates to the engine and returns the last header it
// proposed while processing them (nil when it proposed none).
func deliver(eng *Engine, certs []*Certificate) *Header {
	var proposed *Header
	for _, c := range certs {
		out := eng.OnMessage(c.Header.Source, (&Message{Kind: KindCertificate, Cert: c}).Clone(), 0)
		if h := proposedIn(out); h != nil {
			proposed = h
		}
	}
	return proposed
}

// certifyOwn delivers a quorum of peer votes for the engine's current header
// and returns the last header it proposed in response.
func certifyOwn(t *testing.T, eng *Engine) *Header {
	t.Helper()
	h := eng.CurrentProposal()
	if h == nil {
		t.Fatal("no current proposal to certify")
	}
	var proposed *Header
	for voter := types.ValidatorID(1); voter <= 2; voter++ {
		out := eng.OnMessage(voter, &Message{Kind: KindVote, Vote: &Vote{
			HeaderDigest: h.Digest(), Round: h.Round, Origin: h.Source, Voter: voter,
		}}, 0)
		if p := proposedIn(out); p != nil {
			proposed = p
		}
	}
	if _, ok := eng.DAG().Get(h.Round, h.Source); !ok {
		t.Fatalf("own header at round %d did not certify", h.Round)
	}
	return proposed
}

// TestPacingGateOpensAtValidityThreshold: with its round complete and its
// own pacing timer still running, a validator stays put while certificates
// worth f stake exist at the next round and proposes once they are worth
// f+1 — it is late, and one of them belongs to an honest validator that
// paced itself there.
func TestPacingGateOpensAtValidityThreshold(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)
	eng.Init(0)
	peers := peerRounds(committee, 1, 2)
	deliver(eng, peers[1])
	if h := certifyOwn(t, eng); h != nil {
		t.Fatalf("proposed round %d with the pacing timer running and nobody ahead", h.Round)
	}
	if h := deliver(eng, peers[2][:1]); h != nil || eng.Round() != 1 {
		t.Fatalf("stake f at the next round must not open the gate (round %d)", eng.Round())
	}
	h := deliver(eng, peers[2][1:2])
	if h == nil || h.Round != 2 {
		t.Fatalf("stake f+1 at the next round must open the gate: proposed %v, round %d", h, eng.Round())
	}
	own, _ := eng.DAG().Get(1, 0)
	if !slices.Contains(h.Edges, own.Digest()) {
		t.Fatal("the round-2 header must reference the validator's own round-1 vertex")
	}
}

// TestLaggingValidatorCertifiesBeforeAdvancing: a validator the committee
// has moved past does not give up its uncertified header to follow — only
// its own next header will ever reference that vertex, so skipping it would
// leave the batch in a vertex no anchor reaches. It advances the moment the
// certificate forms.
func TestLaggingValidatorCertifiesBeforeAdvancing(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngineWith(t, committee, &queueBatches{txs: txRange(1, 3)}, nil)
	eng.Init(0)
	peers := peerRounds(committee, 1, 3)
	for r := types.Round(1); r <= 3; r++ {
		if h := deliver(eng, peers[r]); h != nil {
			t.Fatalf("proposed round %d before the round-1 header certified", h.Round)
		}
	}
	if st := eng.Stats(); eng.Round() != 1 || st.HeadersAbandoned != 0 {
		t.Fatalf("round %d, %d headers abandoned; want the round-1 header kept", eng.Round(), st.HeadersAbandoned)
	}
	h := certifyOwn(t, eng)
	if h == nil || h.Round != 2 {
		t.Fatalf("must propose round 2 as soon as round 1 certifies (the committee is ahead): %v", h)
	}
	own, _ := eng.DAG().Get(1, 0)
	if !slices.Contains(h.Edges, own.Digest()) || !slices.Equal(batchIDs(own.Batch), []uint64{1, 2, 3}) {
		t.Fatal("the round-2 header must reference the own round-1 vertex carrying the batch")
	}
}

// TestCatchUpJumpCarriesAbandonedBatch: the catch-up jump gives up the
// outstanding header; each of its transactions is in the next own header,
// ahead of a correspondingly smaller mempool batch, and every transaction is
// proposed exactly once from then on.
func TestCatchUpJumpCarriesAbandonedBatch(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	pool := &queueBatches{txs: txRange(1, 2)}
	eng, _ := newTraceEngineWith(t, committee, pool, func(c *Config) { c.MaxBatchTx = 4 })
	eng.Init(0)
	if got := batchIDs(eng.CurrentProposal().Batch); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("round-1 batch = %v, want [1 2]", got)
	}
	pool.txs = txRange(3, 7)

	// Rounds 1..6 of the other three arrive; no vote for the round-1 header
	// ever does. The first round-6 certificate puts the engine five rounds
	// behind: it jumps to round 5, the highest complete one, and proposes.
	peers := peerRounds(committee, 1, 6)
	var h *Header
	for r := types.Round(1); r <= 6; r++ {
		if p := deliver(eng, peers[r]); p != nil {
			h = p
		}
	}
	if h == nil || h.Round != 6 {
		t.Fatalf("want a round-6 proposal after the jump, got %v (engine round %d)", h, eng.Round())
	}
	if got := batchIDs(h.Batch); !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("round-6 batch = %v, want the abandoned [1 2] ahead of [3 4] from the pool", got)
	}
	if st := eng.Stats(); st.HeadersAbandoned != 1 || st.TxCarried != 2 {
		t.Fatalf("abandoned=%d carried=%d, want 1 and 2", st.HeadersAbandoned, st.TxCarried)
	}

	// The round-6 header certifies and the next one takes only what is left.
	certifyOwn(t, eng)
	out := eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 6}, 0)
	next := findBroadcast(t, out, KindHeader).Header
	if got := batchIDs(next.Batch); next.Round != 7 || !slices.Equal(got, []uint64{5, 6, 7}) {
		t.Fatalf("round-%d batch = %v, want round 7 with [5 6 7]", next.Round, got)
	}
	if _, ok := eng.DAG().Get(1, 0); ok {
		t.Fatal("the abandoned round-1 header must never certify")
	}
}

// TestNextBatchRespectsMaxBatchTx: more carried transactions than a header
// holds stay carried, in order, for the header after it.
func TestNextBatchRespectsMaxBatchTx(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	pool := &queueBatches{txs: txRange(100, 109)}
	eng, _ := newTraceEngineWith(t, committee, pool, func(c *Config) { c.MaxBatchTx = 4 })
	eng.carried = txRange(1, 6)
	if got := batchIDs(eng.nextBatch(0)); !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("first batch = %v, want [1 2 3 4]", got)
	}
	if len(pool.txs) != 10 {
		t.Fatal("a header full of carried transactions must leave the mempool alone")
	}
	if got := batchIDs(eng.nextBatch(0)); !slices.Equal(got, []uint64{5, 6, 100, 101}) {
		t.Fatalf("second batch = %v, want [5 6 100 101]", got)
	}
	if got := batchIDs(eng.nextBatch(0)); !slices.Equal(got, []uint64{102, 103, 104, 105}) {
		t.Fatalf("third batch = %v, want [102 103 104 105]", got)
	}
}

// TestOwnVerticesPrunedUnorderedCounted: an own certified vertex nobody
// referenced is counted, with its transactions, when the committer prunes
// past it — inline and on the order stage alike — and the two modes still
// deliver the same commits.
func TestOwnVerticesPrunedUnorderedCounted(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	var collectors []*commitCollector
	for _, depth := range []int{0, 16} {
		eng, collector := newTraceEngineWith(t, committee, &queueBatches{txs: txRange(1, 3)}, func(c *Config) {
			c.PipelineDepth = depth
			c.GCDepth = 4
			c.GCEvery = 4
		})
		eng.Init(0)
		peers := peerRounds(committee, 1, 40)
		deliver(eng, peers[1])
		// The round-1 header certifies after the others left round 1: their
		// round-2 headers (peerRounds) do not reference it, and the jump
		// below skips the own round-2 header that does.
		certifyOwn(t, eng)
		for r := types.Round(2); r <= 40; r++ {
			deliver(eng, peers[r])
		}
		eng.Flush()
		eng.Close()
		if len(collector.subs) == 0 {
			t.Fatal("trace produced no commits")
		}
		for _, sub := range collector.subs {
			for _, v := range sub.Vertices {
				if v.Source == 0 && v.Round == 1 {
					t.Fatal("the unreferenced vertex was ordered; test lost its teeth")
				}
			}
		}
		st := eng.Stats()
		if st.OwnVerticesPrunedUnordered != 1 || st.OwnTxPrunedUnordered != 3 {
			t.Fatalf("depth %d: pruned unordered = %d vertices / %d txs, want 1 / 3",
				depth, st.OwnVerticesPrunedUnordered, st.OwnTxPrunedUnordered)
		}
		collectors = append(collectors, collector)
	}
	assertSameCommits(t, collectors[0], collectors[1])
}

// fullBatchEngine is validator 0 of a four-validator committee with
// MaxBatchTx 4, its round-1 header proposed empty: what it takes next comes
// from pool.
func fullBatchEngine(t *testing.T) (*Engine, *queueBatches, map[types.Round][]*Certificate) {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	pool := &queueBatches{}
	eng, _ := newTraceEngineWith(t, committee, pool, func(c *Config) { c.MaxBatchTx = 4 })
	eng.Init(0)
	return eng, pool, peerRounds(committee, 1, 3)
}

// TestFullBatchOpensPacingGate: a validator holding MaxBatchTx transactions,
// carried and pending together, leaves its complete round without waiting out
// MinRoundDelay, and its header holds exactly MaxBatchTx of them. One short
// of that, it waits for the round-delay timer.
func TestFullBatchOpensPacingGate(t *testing.T) {
	for _, tc := range []struct {
		name           string
		carried, queue []types.Transaction
		early          bool
		want           []uint64
	}{
		{"exactly full", nil, txRange(1, 4), true, []uint64{1, 2, 3, 4}},
		{"more than full", nil, txRange(1, 6), true, []uint64{1, 2, 3, 4}},
		{"carried counts", txRange(1, 2), txRange(3, 4), true, []uint64{1, 2, 3, 4}},
		{"one short", nil, txRange(1, 3), false, []uint64{1, 2, 3}},
		{"one short with carried", txRange(1, 1), txRange(2, 3), false, []uint64{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, pool, peers := fullBatchEngine(t)
			eng.carried, pool.txs = tc.carried, tc.queue
			deliver(eng, peers[1])
			h := certifyOwn(t, eng)
			if !tc.early {
				if h != nil {
					t.Fatalf("proposed round %d with %d of 4 transactions and the timer running", h.Round, len(tc.carried)+len(tc.queue))
				}
				h = proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 1}, 0))
			} else if stale := proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 1}, 0)); stale != nil {
				t.Fatalf("the round-1 timer proposed round %d after the early round-2 header", stale.Round)
			}
			if h == nil || h.Round != 2 {
				t.Fatalf("want a round-2 proposal, got %v (engine round %d)", h, eng.Round())
			}
			if got := batchIDs(h.Batch); !slices.Equal(got, tc.want) {
				t.Fatalf("round-2 batch = %v, want %v", got, tc.want)
			}
			wantEarly := uint64(0)
			if tc.early {
				wantEarly = 1
			}
			if st := eng.Stats(); st.HeadersFullEarly != wantEarly {
				t.Fatalf("HeadersFullEarly = %d, want %d", st.HeadersFullEarly, wantEarly)
			}
		})
	}
}

// TestFullBatchKeepsRoundConditions: a full batch lifts only the floor, and
// only over a whole round. The validator still waits for its own
// certificate; with a quorum but one validator's certificate missing it waits
// for the round-delay timer; the last certificate of the round opens the gate.
func TestFullBatchKeepsRoundConditions(t *testing.T) {
	t.Run("own certificate", func(t *testing.T) {
		eng, pool, peers := fullBatchEngine(t)
		pool.txs = txRange(1, 4)
		if h := deliver(eng, peers[1]); h != nil {
			t.Fatalf("proposed round %d before the own round-1 header certified", h.Round)
		}
		if h := certifyOwn(t, eng); h == nil || h.Round != 2 {
			t.Fatalf("must propose round 2 once its certificate forms, got %v", h)
		}
	})
	t.Run("whole round", func(t *testing.T) {
		eng, pool, peers := fullBatchEngine(t)
		pool.txs = txRange(1, 4)
		if h := certifyOwn(t, eng); h != nil {
			t.Fatalf("proposed round %d holding 1 of 4 certificates", h.Round)
		}
		for i, c := range peers[1] {
			h := deliver(eng, []*Certificate{c})
			if last := i == len(peers[1])-1; !last && h != nil {
				t.Fatalf("proposed round %d early holding %d of 4 certificates", h.Round, i+2)
			} else if last && (h == nil || h.Round != 2) {
				t.Fatalf("must propose round 2 once the round is whole, got %v", h)
			}
		}
	})
	t.Run("quorum waits for the floor", func(t *testing.T) {
		eng, pool, peers := fullBatchEngine(t)
		pool.txs = txRange(1, 4)
		deliver(eng, peers[1][:2])
		if h := certifyOwn(t, eng); h != nil {
			t.Fatalf("proposed round %d early with a validator's certificate missing", h.Round)
		}
		h := proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 1}, 0))
		if h == nil || h.Round != 2 || !slices.Equal(batchIDs(h.Batch), []uint64{1, 2, 3, 4}) {
			t.Fatalf("the round-delay timer must propose round 2 with [1 2 3 4], got %v", h)
		}
		if st := eng.Stats(); st.HeadersFullEarly != 0 {
			t.Fatalf("HeadersFullEarly = %d for a header the floor released", st.HeadersFullEarly)
		}
	})
}

// TestFullBatchKeepsLeaderWait: leaving an anchor round, a full batch still
// waits for the leader's certificate or the whole leader timeout, even once
// the floor has passed.
func TestFullBatchKeepsLeaderWait(t *testing.T) {
	for _, release := range []string{"leader certificate", "leader timeout"} {
		t.Run(release, func(t *testing.T) {
			eng, pool, peers := fullBatchEngine(t)
			pool.txs = txRange(1, 8)
			deliver(eng, peers[1])
			if h := certifyOwn(t, eng); h == nil || h.Round != 2 {
				t.Fatalf("want an early round-2 proposal, got %v", h)
			}
			leader := eng.leaderAt(2)
			if leader == eng.self {
				t.Fatal("setup: the engine under test leads round 2; the leader-wait is vacuous")
			}
			var leaderCert []*Certificate
			for _, c := range peers[2] {
				if c.Header.Source == leader {
					leaderCert = append(leaderCert, c)
				} else {
					deliver(eng, []*Certificate{c})
				}
			}
			if h := certifyOwn(t, eng); h != nil {
				t.Fatalf("proposed round %d without the round-2 leader's certificate", h.Round)
			}
			out := eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 2}, 0)
			if p := proposedIn(out); p != nil {
				t.Fatalf("the round-delay timer proposed round %d without the leader", p.Round)
			}
			if !slices.ContainsFunc(out.Timers, func(tm Timer) bool { return tm.Kind == TimerLeader && tm.Round == 2 }) {
				t.Fatalf("the completed anchor round must arm the leader timer, got %v", out.Timers)
			}
			var next *Header
			if release == "leader certificate" {
				next = deliver(eng, leaderCert)
			} else {
				next = proposedIn(eng.OnTimer(Timer{Kind: TimerLeader, Round: 2}, 0))
			}
			if next == nil || next.Round != 3 || !slices.Equal(batchIDs(next.Batch), []uint64{5, 6, 7, 8}) {
				t.Fatalf("want round 3 with [5 6 7 8] once the %s arrives, got %v", release, next)
			}
		})
	}
}
