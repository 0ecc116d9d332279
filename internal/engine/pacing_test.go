package engine

import (
	"fmt"
	"slices"
	"testing"
	"time"

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
	h, _ := deliverAt(eng, certs, 0)
	return h
}

// deliverAt is deliver at nowNanos; it also returns the timers armed.
func deliverAt(eng *Engine, certs []*Certificate, nowNanos int64) (*Header, []Timer) {
	var proposed *Header
	var timers []Timer
	for _, c := range certs {
		out := eng.OnMessage(c.Header.Source, &Message{Kind: KindCertificate, Cert: c}, nowNanos)
		if h := proposedIn(out); h != nil {
			proposed = h
		}
		timers = append(timers, out.Timers...)
	}
	return proposed, timers
}

// certifyOwn delivers a quorum of peer votes for the engine's current header
// and returns the last header it proposed in response.
func certifyOwn(t *testing.T, eng *Engine) *Header {
	t.Helper()
	h, _ := certifyOwnAt(t, eng, 0)
	return h
}

// certifyOwnAt is certifyOwn at nowNanos; it also returns the timers armed.
func certifyOwnAt(t *testing.T, eng *Engine, nowNanos int64) (*Header, []Timer) {
	t.Helper()
	h := eng.CurrentProposal()
	if h == nil {
		t.Fatal("no current proposal to certify")
	}
	var proposed *Header
	var timers []Timer
	for voter := types.ValidatorID(1); voter <= 2; voter++ {
		out := eng.OnMessage(voter, &Message{Kind: KindVote, Vote: &Vote{
			HeaderDigest: h.Digest(), Round: h.Round, Origin: h.Source, Voter: voter,
		}}, nowNanos)
		if p := proposedIn(out); p != nil {
			proposed = p
		}
		timers = append(timers, out.Timers...)
	}
	if _, ok := eng.DAG().Get(h.Round, h.Source); !ok {
		t.Fatalf("own header at round %d did not certify", h.Round)
	}
	return proposed, timers
}

// deliverHeaders feeds the engine the headers behind certs, each from its
// source, at nowNanos, and returns the timers armed.
func deliverHeaders(eng *Engine, certs []*Certificate, nowNanos int64) []Timer {
	var timers []Timer
	for _, c := range certs {
		out := eng.OnMessage(c.Header.Source, &Message{Kind: KindHeader, Header: &c.Header}, nowNanos)
		timers = append(timers, out.Timers...)
	}
	return timers
}

// climb drives eng from its round up to round to: each round's peer headers
// and certificates, then its own certificate, and the period timer for a
// round that waits for it. It returns the timers armed, by the round the
// engine was in after the step that armed them.
func climb(t *testing.T, eng *Engine, peers map[types.Round][]*Certificate, to types.Round) map[types.Round][]Timer {
	t.Helper()
	armed := map[types.Round][]Timer{}
	for r := eng.Round(); r < to; r++ {
		armed[r] = append(armed[r], deliverHeaders(eng, peers[r], 0)...)
		deliver(eng, peers[r])
		h, timers := certifyOwnAt(t, eng, 0)
		if h == nil {
			out := eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: uint64(r)}, 0)
			h, timers = proposedIn(out), out.Timers
		}
		if h == nil || h.Round != r+1 {
			t.Fatalf("setup: want a round-%d proposal, got %v", r+1, h)
		}
		armed[r+1] = append(armed[r+1], timers...)
	}
	return armed
}

// TestPacingGateOpensAtValidityThreshold: with its round complete and both
// its pacing timers still running — a whole round 4 waits for the period
// timer, and the per-round floor does not open it — a validator stays put
// while certificates worth f stake exist at the next round and proposes once
// they are worth f+1: it is late, and one of them belongs to an honest
// validator that paced itself there.
func TestPacingGateOpensAtValidityThreshold(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)
	eng.Init(0)
	peers := peerRounds(committee, 1, 5)
	climb(t, eng, peers, 4)
	deliver(eng, peers[4])
	if h := certifyOwn(t, eng); h != nil {
		t.Fatalf("proposed round %d with the pacing timers running and nobody ahead", h.Round)
	}
	if h := proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 4}, 0)); h != nil {
		t.Fatalf("the per-round floor proposed round %d from a whole round 4 the period timer holds", h.Round)
	}
	if h := deliver(eng, peers[5][:1]); h != nil || eng.Round() != 4 {
		t.Fatalf("stake f at the next round must not open the gate (round %d)", eng.Round())
	}
	h := deliver(eng, peers[5][1:2])
	if h == nil || h.Round != 5 {
		t.Fatalf("stake f+1 at the next round must open the gate: proposed %v, round %d", h, eng.Round())
	}
	own, _ := eng.DAG().Get(4, 0)
	if !slices.Contains(h.Edges, own.Digest()) {
		t.Fatal("the round-5 header must reference the validator's own round-4 vertex")
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

	// Rounds 1..7 of the other three arrive; no vote for the round-1 header
	// ever does. The first round-7 certificate puts the engine six rounds
	// behind: it jumps to round 6, the highest complete one, and proposes.
	// At five behind, after the round-6 certificates, it still waits.
	peers := peerRounds(committee, 1, 7)
	var h *Header
	for r := types.Round(1); r <= 7; r++ {
		if p := deliver(eng, peers[r]); p != nil {
			h = p
		}
		if r == 6 && h != nil {
			t.Fatalf("proposed round %d five rounds behind; the jump waits for six", h.Round)
		}
	}
	if h == nil || h.Round != 7 {
		t.Fatalf("want a round-7 proposal after the jump, got %v (engine round %d)", h, eng.Round())
	}
	if got := batchIDs(h.Batch); !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("round-7 batch = %v, want the abandoned [1 2] ahead of [3 4] from the pool", got)
	}
	if st := eng.Stats(); st.HeadersAbandoned != 1 || st.TxCarried != 2 {
		t.Fatalf("abandoned=%d carried=%d, want 1 and 2", st.HeadersAbandoned, st.TxCarried)
	}

	// The round-7 header certifies and the next one takes only what is left.
	// Round 7 ≡ 3 (mod 4) is whole once it does, so the round-8 header goes
	// out in that step.
	next := certifyOwn(t, eng)
	if next == nil {
		t.Fatal("the whole round 7 must propose round 8 as its own certificate forms")
	}
	if got := batchIDs(next.Batch); next.Round != 8 || !slices.Equal(got, []uint64{5, 6, 7}) {
		t.Fatalf("round-%d batch = %v, want round 8 with [5 6 7]", next.Round, got)
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
// past it.
func TestOwnVerticesPrunedUnorderedCounted(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, collector := newTraceEngineWith(t, committee, &queueBatches{txs: txRange(1, 3)}, func(c *Config) { c.GCDepth = 4 })
	eng.Init(0)
	peers := peerRounds(committee, 1, 80)
	deliver(eng, peers[1])
	// The round-1 header certifies after the others left round 1: their
	// round-2 headers (peerRounds) do not reference it, and the jump
	// below skips the own round-2 header that does.
	certifyOwn(t, eng)
	for r := types.Round(2); r <= 80; r++ {
		deliver(eng, peers[r])
	}
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
		t.Fatalf("pruned unordered = %d vertices / %d txs, want 1 / 3",
			st.OwnVerticesPrunedUnordered, st.OwnTxPrunedUnordered)
	}
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
	return eng, pool, peerRounds(committee, 1, 9)
}

// TestFullBatchOpensPacingGate: at a whole round 4, which waits for the
// period timer, a validator holding MaxBatchTx transactions, carried and
// pending together, leaves without waiting, and its header holds exactly
// MaxBatchTx of them. One short of that, it waits for the period timer: the
// per-round floor does not release it.
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
			climb(t, eng, peers, 4)
			eng.carried, pool.txs = tc.carried, tc.queue
			deliver(eng, peers[4])
			h := certifyOwn(t, eng)
			if !tc.early {
				if h != nil {
					t.Fatalf("proposed round %d with %d of 4 transactions and the period timer running", h.Round, len(tc.carried)+len(tc.queue))
				}
				if h = proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 4}, 0)); h != nil {
					t.Fatalf("the per-round floor proposed round %d with the period timer running", h.Round)
				}
				h = proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 4}, 0))
			} else if stale := proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 4}, 0)); stale != nil {
				t.Fatalf("the round-4 period timer proposed round %d after the early round-5 header", stale.Round)
			}
			if h == nil || h.Round != 5 {
				t.Fatalf("want a round-5 proposal, got %v (engine round %d)", h, eng.Round())
			}
			if got := batchIDs(h.Batch); !slices.Equal(got, tc.want) {
				t.Fatalf("round-5 batch = %v, want %v", got, tc.want)
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

// TestBatchFilledBetweenEventsIsProposed: a quiet committee whose whole
// round 4 waits for the period timer proposes a batch that fills from the
// gateway when OnBatchFull reports the fill, not when the timer fires, and
// counts it as an early full batch. One short of full, the report changes
// nothing.
func TestBatchFilledBetweenEventsIsProposed(t *testing.T) {
	const ms = int64(time.Millisecond)
	eng, pool, peers := fullBatchEngine(t)
	climb(t, eng, peers, 4)
	deliverAt(eng, peers[4], 20*ms)
	if h, _ := certifyOwnAt(t, eng, 20*ms); h != nil {
		t.Fatalf("setup: proposed round %d before the period timer with an empty pool", h.Round)
	}
	pool.txs = txRange(1, 3)
	if h := proposedIn(eng.OnBatchFull(25 * ms)); h != nil {
		t.Fatalf("proposed round %d holding 3 of 4 transactions", h.Round)
	}
	pool.txs = txRange(1, 4)
	h := proposedIn(eng.OnBatchFull(30 * ms))
	if h == nil || h.Round != 5 || !slices.Equal(batchIDs(h.Batch), []uint64{1, 2, 3, 4}) {
		t.Fatalf("a full batch over the whole round 4 must go out at once as round 5 with [1 2 3 4], got %v", h)
	}
	if st := eng.Stats(); st.HeadersFullEarly != 1 {
		t.Fatalf("HeadersFullEarly = %d, want 1", st.HeadersFullEarly)
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

// TestWholeAnchorRoundSendsVoteAtOnce: leaving a whole round ≡ 1, 2 or 3
// (mod 4) — the batch round, its anchor round, and the vote that commits the
// anchor — the next header goes out inside the step that completes the round,
// with the round-delay timer still running. A round missing one certificate
// waits for the per-round floor, and a whole round 4 for the period timer. A
// header that is also a full batch counts once, as whole.
func TestWholeAnchorRoundSendsVoteAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		leave   types.Round         // the round the engine completes
		missing bool                // one non-leader peer's certificate never arrives
		queue   []types.Transaction // pending once the engine proposed round leave
		release TimerKind           // the timer that releases it; 0: at once, counted as whole
		want    []uint64
	}{
		{"whole batch round", 1, false, nil, 0, nil},
		{"whole anchor round", 2, false, nil, 0, nil},
		{"whole voting round", 3, false, nil, 0, nil},
		{"anchor round missing a certificate", 2, true, nil, TimerRoundDelay, nil},
		{"whole round 4 waits for the period", 4, false, nil, TimerWaveDelay, nil},
		{"vote with a full batch", 2, false, txRange(1, 6), 0, []uint64{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, pool, peers := fullBatchEngine(t)
			climb(t, eng, peers, tc.leave)
			certs := peers[tc.leave]
			if tc.missing {
				// Not the leader's: the leader-wait is met either way.
				drop := slices.IndexFunc(certs, func(c *Certificate) bool { return c.Header.Source != eng.scheduler.LeaderAt(tc.leave) })
				certs = slices.Delete(slices.Clone(certs), drop, drop+1)
			}
			pool.txs = tc.queue
			before := eng.Stats()
			if h := certifyOwn(t, eng); h != nil {
				t.Fatalf("proposed round %d holding only the own round-%d certificate", h.Round, tc.leave)
			}
			var h *Header
			for i, c := range certs {
				h = deliver(eng, []*Certificate{c})
				if h != nil && (tc.release != 0 || i < len(certs)-1) {
					t.Fatalf("proposed round %d early holding %d of 4 round-%d certificates", h.Round, i+2, tc.leave)
				}
			}
			for _, kind := range []TimerKind{TimerRoundDelay, TimerWaveDelay} {
				fired := proposedIn(eng.OnTimer(Timer{Kind: kind, Round: uint64(tc.leave)}, 0))
				switch {
				case kind == tc.release:
					h = fired
				case fired != nil:
					t.Fatalf("the round-%d %v timer proposed round %d", tc.leave, kind, fired.Round)
				}
				if h != nil {
					break
				}
			}
			if h == nil || h.Round != tc.leave+1 {
				t.Fatalf("want a round-%d proposal, got %v (engine round %d)", tc.leave+1, h, eng.Round())
			}
			if got := batchIDs(h.Batch); !slices.Equal(got, tc.want) {
				t.Fatalf("round-%d batch = %v, want %v", h.Round, got, tc.want)
			}
			wantWhole := uint64(0)
			if tc.release == 0 {
				wantWhole = 1
			}
			st := eng.Stats()
			if whole, full := st.HeadersWholeEarly-before.HeadersWholeEarly, st.HeadersFullEarly-before.HeadersFullEarly; whole != wantWhole || full != 0 {
				t.Fatalf("leaving round %d counted %d early whole-round headers and %d early full batches, want %d and 0", tc.leave, whole, full, wantWhole)
			}
		})
	}
	t.Run("genesis is no anchor round", func(t *testing.T) {
		committee, err := types.NewEqualStakeCommittee(4)
		if err != nil {
			t.Fatal(err)
		}
		eng, _ := newTraceEngine(t, committee, nil)
		if open, early := eng.pacingOpen(); open || early != notEarly {
			t.Fatalf("round 0 with no timer passed: pacingOpen = %v, %v; genesis, ≡ 0 with no period timer, waits for the per-round floor", open, early)
		}
	})
}

// TestWaveFloorCountsFromTheAnchorHeader: the period counts from the
// batch-round header that brings the validator's holding of them to f+1
// stake, its own included once proposed. Proposing round 1 arms nothing by
// itself (f stake at n=4); the first peer round-1 header arms the period
// timer for round 4, one MinRoundDelay ahead, and nothing later in the
// period re-arms it. A whole round 4 is left when it fires, or at once if it
// already has — not at a per-round floor that fires first; missing a
// certificate it waits for its own per-round floor; none of this carries
// over to the next period; and a validator still in round 4 when f+1 peers'
// round-5 headers arrive follows them at the per-round floor. The subtest
// names are the wave's: a round ≡ 0 is where the period, like the wave
// before it, waits out the floor. The engine reads no clock, so the times
// only order the events; a round-4 floor that fires before the period timer,
// as in two subtests, takes an (f+1)-th round-1 header that came late.
func TestWaveFloorCountsFromTheAnchorHeader(t *testing.T) {
	const ms = int64(time.Millisecond)
	period := DefaultConfig().MinRoundDelay
	periodTimers := func(timers []Timer) []Timer {
		var p []Timer
		for _, tm := range timers {
			if tm.Kind == TimerWaveDelay {
				p = append(p, tm)
			}
		}
		return p
	}
	// periodEngine returns an engine that proposed its round-1 batch header
	// at time 0, took its peers' round-1 headers at 2 ms, and proposed rounds
	// 2 to 4 at once at 5, 10 and 15 ms.
	periodEngine := func(t *testing.T) (*Engine, map[types.Round][]*Certificate) {
		committee, err := types.NewEqualStakeCommittee(4)
		if err != nil {
			t.Fatal(err)
		}
		eng, _ := newTraceEngineWith(t, committee, &queueBatches{}, nil)
		if p := periodTimers(eng.Init(0).Timers); len(p) != 0 {
			t.Fatalf("the own round-1 header alone armed period timers %v", p)
		}
		peers := peerRounds(committee, 1, 9)
		p := periodTimers(deliverHeaders(eng, peers[1][:1], 2*ms))
		if len(p) != 1 || p[0].Round != 4 || p[0].Delay != period {
			t.Fatalf("the first peer round-1 header armed period timers %v, want one for round 4 in %v", p, period)
		}
		if p := periodTimers(deliverHeaders(eng, peers[1][1:], 2*ms)); len(p) != 0 {
			t.Fatalf("later round-1 headers armed period timers %v", p)
		}
		for r := types.Round(1); r < 4; r++ {
			at := int64(r) * 5 * ms
			deliverAt(eng, peers[r], at)
			h, armed := certifyOwnAt(t, eng, at)
			if h == nil || h.Round != r+1 {
				t.Fatalf("setup: want the round-%d header at once at %v, got %v", r+1, time.Duration(at), h)
			}
			if p := periodTimers(armed); len(p) != 0 {
				t.Fatalf("proposing round %d armed period timers %v", r+1, p)
			}
		}
		return eng, peers
	}

	t.Run("whole voting round leaves at the wave timer", func(t *testing.T) {
		eng, peers := periodEngine(t)
		deliverAt(eng, peers[4], 20*ms)
		if h, _ := certifyOwnAt(t, eng, 20*ms); h != nil {
			t.Fatalf("proposed round %d before the period timer", h.Round)
		}
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 4}, 50*ms)); h != nil {
			t.Fatalf("the per-round floor proposed round %d from a whole round 4", h.Round)
		}
		out := eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 4}, 52*ms)
		h := proposedIn(out)
		if h == nil || h.Round != 5 {
			t.Fatalf("the period timer must propose round 5 from the whole round 4, got %v", h)
		}
		if p := periodTimers(out.Timers); len(p) != 0 {
			t.Fatalf("the own round-5 header alone armed period timers %v", p)
		}
		if p := periodTimers(deliverHeaders(eng, peers[5], 53*ms)); len(p) != 1 || p[0].Round != 8 || p[0].Delay != period {
			t.Fatalf("the round-5 peer headers armed period timers %v, want one for round 8 in %v", p, period)
		}
		if st := eng.Stats(); st.HeadersWholeEarly != 3 || st.HeadersFullEarly != 0 {
			t.Fatalf("counted %d early whole-round headers and %d early full batches, want 3 and 0", st.HeadersWholeEarly, st.HeadersFullEarly)
		}

		// The next period starts over: rounds 5 to 7 go out at once, and the
		// whole round 8 waits for its own period timer.
		for r := types.Round(5); r < 8; r++ {
			deliverAt(eng, peers[r], 50*ms+int64(r)*ms)
			if h, _ := certifyOwnAt(t, eng, 50*ms+int64(r)*ms); h == nil || h.Round != r+1 {
				t.Fatalf("want the round-%d header at once, got %v", r+1, h)
			}
		}
		deliverAt(eng, peers[8], 70*ms)
		if h, _ := certifyOwnAt(t, eng, 70*ms); h != nil {
			t.Fatalf("proposed round %d: the round-4 period timer outlived its period", h.Round)
		}
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 4}, 80*ms)); h != nil {
			t.Fatalf("a stale round-4 period timer proposed round %d", h.Round)
		}
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 8}, 103*ms)); h == nil || h.Round != 9 {
			t.Fatalf("the round-8 period timer must propose round 9, got %v", h)
		}
	})
	t.Run("voting round missing a certificate waits for its own floor", func(t *testing.T) {
		eng, peers := periodEngine(t)
		// Not the leader's: the leader-wait is met either way.
		drop := slices.IndexFunc(peers[4], func(c *Certificate) bool { return c.Header.Source != eng.scheduler.LeaderAt(4) })
		certs := slices.Delete(slices.Clone(peers[4]), drop, drop+1)
		deliverAt(eng, certs, 20*ms)
		if h, _ := certifyOwnAt(t, eng, 20*ms); h != nil {
			t.Fatalf("proposed round %d holding 3 of 4 certificates", h.Round)
		}
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 4}, 52*ms)); h != nil {
			t.Fatalf("the period timer proposed round %d with a validator's certificate missing", h.Round)
		}
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 4}, 65*ms)); h == nil || h.Round != 5 {
			t.Fatalf("the round-4 floor must propose round 5, got %v", h)
		}
	})
	t.Run("round whole after the wave timer", func(t *testing.T) {
		eng, peers := periodEngine(t)
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: 4}, 52*ms)); h != nil {
			t.Fatalf("the period timer proposed round %d before round 4 completed", h.Round)
		}
		deliverAt(eng, peers[4], 55*ms)
		if h, _ := certifyOwnAt(t, eng, 55*ms); h == nil || h.Round != 5 {
			t.Fatalf("round 4 must propose round 5 as it becomes whole, got %v", h)
		}
	})
	t.Run("vote a floor after its anchor header", func(t *testing.T) {
		// A validator still waiting out round 4 when headers worth f+1 stake
		// of round 5 arrive is behind the committee's period: they start its
		// round-8 period, and round 4, with no period timer left, is left at
		// the per-round floor — at the next event, here a round-5 certificate
		// worth f stake, which by itself would not open the gate.
		eng, peers := periodEngine(t)
		deliverAt(eng, peers[4], 20*ms)
		if h, _ := certifyOwnAt(t, eng, 20*ms); h != nil {
			t.Fatalf("proposed round %d before the period timer", h.Round)
		}
		if p := periodTimers(deliverHeaders(eng, peers[5][:1], 40*ms)); len(p) != 0 {
			t.Fatalf("one peer round-5 header (f stake) armed period timers %v", p)
		}
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: 4}, 45*ms)); h != nil {
			t.Fatalf("the per-round floor proposed round %d with the round-4 period timer running", h.Round)
		}
		out := eng.OnMessage(peers[5][1].Header.Source, &Message{Kind: KindHeader, Header: &peers[5][1].Header}, 48*ms)
		if p := periodTimers(out.Timers); len(p) != 1 || p[0].Round != 8 || p[0].Delay != period {
			t.Fatalf("the second peer round-5 header armed period timers %v, want one for round 8 in %v", p, period)
		}
		if h := deliver(eng, peers[5][:1]); h == nil || h.Round != 5 {
			t.Fatalf("with the per-round floor passed, round 4 must propose round 5 behind f+1 round-5 headers, got %v", h)
		}
	})
}

// When TestPeriodGate's validator left its round.
const (
	atOnce   = "at once"
	atFloor  = "at the per-round floor"
	atPeriod = "at the period timer"
	never    = "never"
)

// TestPeriodGate is the pacing gate as a table: for a validator at round
// 4 + residue with its own certificate formed, whether it leaves at once, at
// the per-round floor, at the period timer, or never, by
//   - the round's residue mod 4,
//   - whole, or missing one (non-leader) peer's certificate,
//   - the period timer fired, pending, or absent (as after a catch-up jump,
//     a rejoin or a restored header),
//   - a full batch pending,
//   - certificates worth f+1 stake at the next round.
//
// Period timers scoped to other rounds fire first and change nothing, and the
// period timer of round p ≡ 0 is the one the headers of batch round p-3
// armed, one MinRoundDelay ahead.
func TestPeriodGate(t *testing.T) {
	type timerState string
	const (
		fired   timerState = "fired"
		pending timerState = "pending"
		absent  timerState = "absent"
	)
	// expect is the rule: f+1 ahead always leaves; a round missing a
	// certificate waits for the per-round floor; a whole round ≡ 1, 2 or 3
	// leaves at once, and a whole round ≡ 0 once its period has passed or a
	// full batch is in, otherwise at its period timer, or with none at the
	// per-round floor.
	expect := func(residue int, whole bool, timer timerState, full, ahead bool) string {
		switch {
		case ahead:
			return atOnce
		case !whole:
			return atFloor
		case residue != 0, timer == fired, full:
			return atOnce
		case timer == pending:
			return atPeriod
		}
		return atFloor
	}
	period := DefaultConfig().MinRoundDelay
	for residue := 0; residue < periodRounds; residue++ {
		for _, whole := range []bool{true, false} {
			for _, timer := range []timerState{fired, pending, absent} {
				for _, full := range []bool{false, true} {
					for _, ahead := range []bool{false, true} {
						name := fmt.Sprintf("r%d/whole=%v/%s/full=%v/ahead=%v", residue, whole, timer, full, ahead)
						t.Run(name, func(t *testing.T) {
							want := expect(residue, whole, timer, full, ahead)
							if got := periodGateRun(t, types.Round(4+residue), whole, timer == fired, timer == absent, full, ahead, period); got != want {
								t.Fatalf("left %s, want %s", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// periodGateRun is one row of TestPeriodGate: validator 0 of four, MaxBatchTx
// 4, brought to round at by whole rounds. It reports when the validator left
// round at.
func periodGateRun(t *testing.T, at types.Round, whole, fire, absent, full, ahead bool, period time.Duration) string {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	pool := &queueBatches{}
	eng, _ := newTraceEngineWith(t, committee, pool, func(c *Config) { c.MaxBatchTx = 4 })
	armed := map[types.Round][]Timer{1: eng.Init(0).Timers}
	peers := peerRounds(committee, 1, at+1)
	for r, timers := range climb(t, eng, peers, at) {
		armed[r] = append(armed[r], timers...)
	}
	armed[at] = append(armed[at], deliverHeaders(eng, peers[at], 0)...)

	// p is the round ≡ 0 at or above at: the round whose gate the current
	// period timer holds. Only the headers of batch round p-3 arm it.
	p := at + (periodRounds-at%periodRounds)%periodRounds
	for r, timers := range armed {
		for _, tm := range timers {
			if tm.Kind != TimerWaveDelay {
				continue
			}
			if r%periodRounds != 1 || tm.Round != uint64(r+periodRounds-1) || tm.Delay != period {
				t.Fatalf("at round %d armed period timer %+v; only batch round r's headers arm one, for r+3 in %v", r, tm, period)
			}
		}
	}
	if !slices.ContainsFunc(armed[p-3], func(tm Timer) bool { return tm.Kind == TimerWaveDelay && tm.Round == uint64(p) }) {
		t.Fatalf("the round-%d batch headers armed no period timer for round %d: %v", p-3, p, armed[p-3])
	}

	if absent {
		eng.periodRound = 0
	}
	fireAt := []types.Round{p + periodRounds}
	if p > periodRounds {
		fireAt = append(fireAt, p-periodRounds)
	}
	if fire {
		fireAt = append(fireAt, p)
	}
	for _, r := range fireAt {
		if h := proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: uint64(r)}, 0)); h != nil {
			t.Fatalf("a round-%d period timer proposed round %d before round %d completed", r, h.Round, at)
		}
	}
	if full {
		pool.txs = txRange(1, 4)
	}
	certs := peers[at]
	if !whole {
		// Not the leader's: the leader-wait is met either way.
		drop := slices.IndexFunc(certs, func(c *Certificate) bool { return c.Header.Source != eng.scheduler.LeaderAt(at) })
		certs = slices.Delete(slices.Clone(certs), drop, drop+1)
	}
	if h := deliver(eng, certs); h != nil {
		t.Fatalf("proposed round %d before the own round-%d certificate formed", h.Round, at)
	}
	before := eng.Stats()
	h := certifyOwn(t, eng)
	completing := h != nil // left in the step that completed the round
	if h == nil && ahead {
		// Validators 1 and 2 — f+1 stake — are at the next round, their
		// headers referencing every round-at vertex the engine holds.
		var edges []types.Digest
		for _, v := range eng.DAG().RoundVertices(at) {
			edges = append(edges, v.Digest())
		}
		var next []*Certificate
		for src := types.ValidatorID(1); src <= 2; src++ {
			c := &Certificate{Header: Header{Round: at + 1, Source: src, Edges: edges}}
			for voter := types.ValidatorID(1); voter <= 3; voter++ {
				c.Votes = append(c.Votes, VoteSig{Voter: voter})
			}
			next = append(next, c)
		}
		h = deliver(eng, next)
	}
	left := atOnce
	if h == nil {
		left = atFloor
		h = proposedIn(eng.OnTimer(Timer{Kind: TimerRoundDelay, Round: uint64(at)}, 0))
	}
	if h == nil {
		left = atPeriod
		h = proposedIn(eng.OnTimer(Timer{Kind: TimerWaveDelay, Round: uint64(p)}, 0))
	}
	if h == nil {
		return never
	}
	if h.Round != at+1 {
		t.Fatalf("proposed round %d leaving round %d", h.Round, at)
	}
	// Counted early: a whole round ≡ 1, 2 or 3 left as it completed, or a
	// full batch that opened a whole round ≡ 0 before its period passed.
	var wantWhole, wantFull uint64
	if completing && at%periodRounds != 0 {
		wantWhole = 1
	} else if completing && !fire {
		wantFull = 1
	}
	st := eng.Stats()
	if whole, full := st.HeadersWholeEarly-before.HeadersWholeEarly, st.HeadersFullEarly-before.HeadersFullEarly; whole != wantWhole || full != wantFull {
		t.Fatalf("counted %d early whole-round headers and %d early full batches, want %d and %d", whole, full, wantWhole, wantFull)
	}
	return left
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
			leader := eng.scheduler.LeaderAt(2)
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
