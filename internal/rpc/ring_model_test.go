package rpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"testing"

	"hammerhead/internal/execution"
	"hammerhead/internal/types"
)

// modelRing is the resume window as the gateway kept it before the byte
// budget: a circular buffer bounded by a count alone, and a resume that copies
// the whole deliverable tail. It is the oracle the byte-bounded commitRing
// must agree with whenever the budget does not bind.
type modelRing struct {
	ring []CommitEvent
	head int
}

func newModelRing(depth int) *modelRing {
	return &modelRing{ring: make([]CommitEvent, 0, depth)}
}

func (m *modelRing) push(ev CommitEvent) {
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, ev)
		return
	}
	m.ring[m.head] = ev
	m.head = (m.head + 1) % len(m.ring)
}

func (m *modelRing) at(i int) *CommitEvent { return &m.ring[(m.head+i)%len(m.ring)] }

func (m *modelRing) tail(next uint64) (batch []CommitEvent, gapOldest uint64) {
	n := len(m.ring)
	if n > 0 && m.at(0).Seq > next {
		gapOldest = m.at(0).Seq
		next = gapOldest
	}
	start := sort.Search(n, func(i int) bool { return m.at(i).Seq >= next })
	for i := start; i < n; i++ {
		batch = append(batch, *m.at(i))
	}
	return batch, gapOldest
}

// randomEvent builds a commit event of a seeded random size: up to maxTx
// transactions of up to maxPayload bytes each.
func randomEvent(rng *rand.Rand, seq uint64, maxTx, maxPayload int) CommitEvent {
	ev := CommitEvent{Seq: seq, Round: 2 * seq, CommitDigest: fmt.Sprintf("%064x", seq)}
	for i, n := 0, rng.Intn(maxTx+1); i < n; i++ {
		ev.TxIDs = append(ev.TxIDs, seq<<16|uint64(i))
		ev.Payloads = append(ev.Payloads, bytes.Repeat([]byte{byte(seq)}, rng.Intn(maxPayload+1)))
	}
	ev.TxCount = len(ev.TxIDs)
	return ev
}

// drain reads the ring the way a subscriber does — limit events per call,
// resuming after the last one — until it has caught up.
func drain(t *testing.T, r *commitRing, next uint64, limit int) (seqs []uint64, gaps []uint64) {
	t.Helper()
	var batch []CommitEvent
	for {
		var gap uint64
		batch, gap = r.tail(batch[:0], next, limit)
		if len(batch) > limit {
			t.Fatalf("tail copied %d events out under one hold of the lock, limit %d", len(batch), limit)
		}
		if gap != 0 {
			gaps = append(gaps, gap)
		}
		if len(batch) == 0 {
			return seqs, gaps
		}
		for i := range batch {
			seqs = append(seqs, batch[i].Seq)
		}
		next = batch[len(batch)-1].Seq + 1
	}
}

// TestRingAgreesWithCountOnlyModel: with the byte budget out of reach the
// byte-bounded ring is the count-bounded one. After every push, every resume
// point — before the window, inside it, at the tail, past it — yields the
// same gap and the same events in the same order, whether the subscriber
// takes the tail whole or streamBatch-style in slices.
func TestRingAgreesWithCountOnlyModel(t *testing.T) {
	for _, depth := range []int{1, 3, 16, 40} {
		rng := rand.New(rand.NewSource(int64(depth)))
		ring := newCommitRing(depth, 2*execution.DefaultCheckpointInterval, 1<<40)
		model := newModelRing(depth)
		seq := uint64(0)
		for step := 0; step < 3*depth+20; step++ {
			seq += 1 + uint64(rng.Intn(3)) // sequences may skip (snapshot installs)
			ev := randomEvent(rng, seq, 8, 64)
			ring.push(ev)
			model.push(ev)
			for next := uint64(0); next <= seq+2; next++ {
				want, wantGap := model.tail(next)
				for _, limit := range []int{1 << 30, 1, 7} {
					got, gaps := drain(t, ring, next, limit)
					if len(got) != len(want) {
						t.Fatalf("depth %d seq %d resume %d limit %d: %d events, model has %d", depth, seq, next, limit, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i].Seq {
							t.Fatalf("depth %d seq %d resume %d limit %d: event %d is seq %d, model %d", depth, seq, next, limit, i, got[i], want[i].Seq)
						}
					}
					if (wantGap == 0) != (len(gaps) == 0) || len(gaps) > 1 || (wantGap != 0 && gaps[0] != wantGap) {
						t.Fatalf("depth %d seq %d resume %d limit %d: gaps %v, model %d", depth, seq, next, limit, gaps, wantGap)
					}
				}
			}
			if ring.oldestSeq() != model.at(0).Seq {
				t.Fatalf("depth %d seq %d: oldest %d, model %d", depth, seq, ring.oldestSeq(), model.at(0).Seq)
			}
		}
	}
}

// TestRingByteBudget: with the budget in reach the ring holds at most budget
// bytes of event data — or exactly its floor of newest events, when those
// alone exceed the budget — and what it holds stays a contiguous, ordered
// suffix of the stream whose oldest event is what a late resume is told.
func TestRingByteBudget(t *testing.T) {
	const depth, floor, budget = 256, 8, 16 << 10
	rng := rand.New(rand.NewSource(7))
	ring := newCommitRing(depth, floor, budget)
	var sawBudgetBind, sawFloorBind bool
	for seq := uint64(1); seq <= 2000; seq++ {
		// Mostly ~1 KB commits (the budget binds at ~16 of them); now and
		// then a run of ~8 KB ones, which the floor holds above the budget.
		maxPayload := 64
		if seq/100%4 == 3 {
			maxPayload = 512
		}
		ring.push(randomEvent(rng, seq, 32, maxPayload))

		sum := 0
		for i := 0; i < ring.n; i++ {
			sum += eventBytes(ring.at(i))
			if want := seq - uint64(ring.n-1-i); ring.at(i).Seq != want {
				t.Fatalf("seq %d: slot %d holds seq %d, want %d (not a contiguous suffix)", seq, i, ring.at(i).Seq, want)
			}
		}
		if sum != ring.bytes {
			t.Fatalf("seq %d: ring accounts %d bytes, events hold %d", seq, ring.bytes, sum)
		}
		if ring.bytes > budget && ring.n > floor {
			t.Fatalf("seq %d: %d events hold %d bytes, over the %d budget and above the floor of %d", seq, ring.n, ring.bytes, budget, floor)
		}
		if ring.n > floor && ring.n < depth && ring.n < int(seq) {
			sawBudgetBind = true // the budget, not the count, evicted
		}
		if ring.bytes > budget && ring.n == floor {
			sawFloorBind = true
		}
		for i := ring.n; i < depth; i++ {
			if ev := ring.at(i); ev.Seq != 0 || ev.Payloads != nil || ev.TxIDs != nil {
				t.Fatalf("seq %d: evicted slot still holds seq %d", seq, ev.Seq)
			}
		}
		if ring.n < int(seq) {
			_, gap := ring.tail(nil, 1, 1)
			if gap != ring.at(0).Seq || gap != ring.oldestSeq() {
				t.Fatalf("seq %d: late resume told oldest=%d, ring's oldest is %d", seq, gap, ring.at(0).Seq)
			}
		}
	}
	if !sawBudgetBind || !sawFloorBind {
		t.Fatalf("the workload never exercised both bounds (budget %v, floor %v)", sawBudgetBind, sawFloorBind)
	}
}

// TestRingCountStillBinds: the floor exempts events from the byte budget,
// never from HistoryDepth.
func TestRingCountStillBinds(t *testing.T) {
	ring := newCommitRing(4, 64, 1)
	for seq := uint64(1); seq <= 10; seq++ {
		ring.push(CommitEvent{Seq: seq, TxIDs: []uint64{seq}})
	}
	if ring.n != 4 || ring.oldestSeq() != 7 {
		t.Fatalf("ring holds %d events from seq %d, want 4 from 7", ring.n, ring.oldestSeq())
	}
}

// readStream opens /v1/commits with the given resume (query and/or
// Last-Event-ID) and reads frames until it has seen upTo.
func readStream(t *testing.T, base, query, lastEventID string, upTo uint64) (seqs []uint64, gaps []uint64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/commits"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	c := &sseClient{resp: resp, reader: bufio.NewReader(resp.Body)}
	for {
		name, data := c.next(t)
		switch name {
		case "gap":
			var gap GapEvent
			if err := json.Unmarshal(data, &gap); err != nil {
				t.Fatal(err)
			}
			gaps = append(gaps, gap.Oldest)
		case "commit":
			var ev CommitEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, ev.Seq)
			if ev.Seq >= upTo {
				return seqs, gaps
			}
		default:
			t.Fatalf("unexpected frame %q", name)
		}
	}
}

// TestStreamResumeMatchesModel drives the same comparison through the HTTP
// surface: ?from= and Last-Event-ID resumes against a gateway whose ring has
// wrapped deliver what the count-only model says, a deep resume crossing
// several streamBatch slices included.
func TestStreamResumeMatchesModel(t *testing.T) {
	const depth = 3*streamBatch + 10
	g, _, _, base := newTestGateway(t, func(c *Config) { c.HistoryDepth = depth; c.RootAt = nil })
	model := newModelRing(depth)
	rng := rand.New(rand.NewSource(3))
	const last = depth + 50
	for seq := uint64(1); seq <= last; seq++ {
		ev := randomEvent(rng, seq, 4, 32)
		g.ObserveEvent(ev)
		model.push(ev)
	}
	for _, from := range []uint64{0, 1, 49, 50, 51, 52, last - streamBatch - 1, last - 1} {
		want, wantGap := model.tail(from + 1)
		for _, resume := range []struct{ query, header string }{
			{fmt.Sprintf("?from=%d", from), ""},
			{"", fmt.Sprint(from)},
			{"?full=1", fmt.Sprint(from)},
		} {
			got, gaps := readStream(t, base, resume.query, resume.header, last)
			if len(got) != len(want) {
				t.Fatalf("resume %+v: %d events, model has %d", resume, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i].Seq {
					t.Fatalf("resume %+v: event %d is seq %d, model %d", resume, i, got[i], want[i].Seq)
				}
			}
			if (wantGap == 0) != (len(gaps) == 0) || (wantGap != 0 && (len(gaps) != 1 || gaps[0] != wantGap)) {
				t.Fatalf("resume %+v: gaps %v, model %d", resume, gaps, wantGap)
			}
		}
	}
}

// TestFullSubscriberThatKeepsUpNeverGaps: the byte budget evicts history, not
// the live tail. A ?full=1 subscriber reading each commit as it lands sees
// every one, payloads intact and no gap frame, across five times the budget.
func TestFullSubscriberThatKeepsUpNeverGaps(t *testing.T) {
	g, _, _, base := newTestGateway(t, func(c *Config) { c.RootAt = nil })
	resp, err := http.Get(base + "/v1/commits?full=1&from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	c := &sseClient{resp: resp, reader: bufio.NewReader(resp.Body)}

	const commitBytes = 128 << 10
	const commits = 5 * historyBytes / commitBytes
	for seq := uint64(1); seq <= commits; seq++ {
		payload := bytes.Repeat([]byte{byte(seq)}, commitBytes)
		g.ObserveCommit(syntheticCommit(seq, types.Round(2*seq), payload))
		name, data := c.next(t)
		var ev CommitEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			t.Fatal(err)
		}
		if name != "commit" || ev.Seq != seq || len(ev.Payloads) != 1 || !bytes.Equal(ev.Payloads[0], payload) {
			t.Fatalf("frame %q seq %d with %d payloads, want commit %d with its payload", name, ev.Seq, len(ev.Payloads), seq)
		}
	}
	g.mu.Lock()
	n, held, oldest := g.ring.n, g.ring.bytes, g.ring.oldestSeq()
	g.mu.Unlock()
	if n != 2*execution.DefaultCheckpointInterval || held <= historyBytes || oldest != commits-uint64(n)+1 {
		t.Fatalf("ring holds %d events (%d bytes) from seq %d; 128 KB commits should pin it at its floor of %d",
			n, held, oldest, 2*execution.DefaultCheckpointInterval)
	}
}
