package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// slotModel is the engine's per-round state the way it was kept before it
// became slot-addressed — a vote record keyed by (origin, round), a
// certificate store keyed by digest with a per-round index, each pruned by
// walking it — and the oracle TestSlotStoreMatchesMapModel holds the slots to.
type slotModel struct {
	n       int
	floor   types.Round
	voted   map[modelKey]types.Digest
	store   map[types.Digest]*Certificate
	byRound map[types.Round][]*Certificate
}

type modelKey struct {
	origin types.ValidatorID
	round  types.Round
}

func newSlotModel(n int) *slotModel {
	return &slotModel{
		n:       n,
		voted:   map[modelKey]types.Digest{},
		store:   map[types.Digest]*Certificate{},
		byRound: map[types.Round][]*Certificate{},
	}
}

// onHeader is the vote decision: true records the vote.
func (m *slotModel) onHeader(from types.ValidatorID, h *Header) bool {
	if int(from) >= m.n || h.Source != from || h.Round < 1 {
		return false
	}
	if h.Round < m.floor || h.Round-m.floor >= dag.MaxRetainedRounds {
		return false
	}
	k := modelKey{h.Source, h.Round}
	if prev, ok := m.voted[k]; ok && prev != h.Digest() {
		return false
	}
	m.voted[k] = h.Digest()
	return true
}

func (m *slotModel) insert(c *Certificate) {
	m.store[c.Digest()] = c
	m.byRound[c.Header.Round] = append(m.byRound[c.Header.Round], c)
}

func (m *slotModel) certAt(round types.Round, source types.ValidatorID) *Certificate {
	for _, c := range m.byRound[round] {
		if c.Header.Source == source {
			return c
		}
	}
	return nil
}

// byDigests is what a CertRequest is answered with: the retained certificates
// among its first limit digests.
func (m *slotModel) byDigests(digests []types.Digest, limit int) []*Certificate {
	var out []*Certificate
	for _, d := range digests[:min(len(digests), limit)] {
		if c, ok := m.store[d]; ok {
			out = append(out, c)
		}
	}
	return out
}

// rangeFrom is what a RoundRequest or RejoinRequest is answered with: every
// certificate from start on, ascending round then source, limit at most.
func (m *slotModel) rangeFrom(start types.Round, limit int) []*Certificate {
	var out []*Certificate
	for _, c := range m.store {
		if c.Header.Round >= start {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Header.Round != out[j].Header.Round {
			return out[i].Header.Round < out[j].Header.Round
		}
		return out[i].Header.Source < out[j].Header.Source
	})
	return out[:min(len(out), limit)]
}

func (m *slotModel) prune(floor types.Round) {
	if floor <= m.floor {
		return
	}
	m.floor = floor
	for k := range m.voted {
		if k.round < floor {
			delete(m.voted, k)
		}
	}
	for d, c := range m.store {
		if c.Header.Round < floor {
			delete(m.store, d)
		}
	}
	for r := range m.byRound {
		if r < floor {
			delete(m.byRound, r)
		}
	}
}

// walEntry is one record of the harness's write-ahead log: a certificate the
// engine inserted or a header it proposed.
type walEntry struct {
	cert     *Certificate
	proposal *Header
}

// slotHarness drives one engine (validator 0) beside the model. The other
// validators exist only as the world's certificates: a consistent chain the
// harness delivers in whatever order the seed says.
type slotHarness struct {
	t         *testing.T
	rng       *rand.Rand
	n         int
	committee *types.Committee
	keys      crypto.KeyPair
	e         *Engine
	m         *slotModel
	world     [][]*Certificate // world[r][source]; nil: none (always for validator 0)
	delivered []int            // per world round, how many deliveries were attempted
	wal       []walEntry
	inserted  []*Certificate   // reported by the engine (Observer) since the last absorb
	snap      *SnapshotInstall // last fast-forward, replayed on restart like a local snapshot
	snapMeta  SnapshotMeta
	step      int
	adopted   int // rejoins that adopted a surviving own certificate
}

const slotSelf = types.ValidatorID(0)

func (h *slotHarness) newEngine() *Engine {
	cfg := DefaultConfig()
	cfg.VerifySignatures = false
	cfg.GCDepth, cfg.GCEvery = 4, 2
	cfg.MaxSyncBatch = 2*h.n + 3 // cuts a response inside a round
	e, err := New(Params{
		Config: cfg, Committee: h.committee, Self: slotSelf, Keys: h.keys,
		Batches: nilBatches{}, Scheduler: leader.NewRoundRobin(h.committee, 1),
		DAG: dag.New(h.committee), Observer: h,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return e
}

// buildWorld makes rounds 1..rounds of certificates by every validator but 0,
// each linking to all of the previous round's.
func (h *slotHarness) buildWorld(rounds int) {
	var prev []types.Digest
	for _, v := range h.e.DAG().RoundVertices(0) {
		prev = append(prev, v.Digest())
	}
	quorum := make([]VoteSig, 0, h.n)
	acc := types.NewStakeAccumulator(h.committee)
	for id := types.ValidatorID(0); !acc.ReachedQuorum(); id++ {
		acc.Add(id)
		quorum = append(quorum, VoteSig{Voter: id, Signature: crypto.Signature{1}})
	}
	h.world = make([][]*Certificate, rounds+1)
	h.delivered = make([]int, rounds+1)
	for r := 1; r <= rounds; r++ {
		h.world[r] = make([]*Certificate, h.n)
		var next []types.Digest
		for s := 1; s < h.n; s++ {
			if h.n > 4 && h.rng.Intn(10) == 0 {
				continue // this validator sat the round out
			}
			c := &Certificate{
				Header: Header{Round: types.Round(r), Source: types.ValidatorID(s), Edges: prev},
				Votes:  quorum,
			}
			h.world[r][s] = c
			next = append(next, c.Digest())
		}
		prev = next
	}
}

// The harness is its engine's Observer: inserted certificates wait for the
// step's absorb.
func (h *slotHarness) Inserted(c *Certificate) { h.inserted = append(h.inserted, c) }
func (h *slotHarness) Proposed(*Header)        {}
func (h *slotHarness) Certified(*Certificate)  {}

func (h *slotHarness) CheckpointCertified(*checkpoint.Certificate) {}

// absorb feeds one engine step's observable effects to the model — headers
// proposed are votes cast, inserted certificates are retained — lets it
// follow the engine's floor, and compares everything.
func (h *slotHarness) absorb(out *Output) {
	h.t.Helper()
	for _, c := range h.inserted {
		h.m.insert(c)
		h.wal = append(h.wal, walEntry{cert: c})
	}
	h.inserted = h.inserted[:0]
	for _, msg := range out.Broadcasts {
		if msg.Kind == KindHeader && msg.Header.Source == slotSelf {
			h.m.voted[modelKey{slotSelf, msg.Header.Round}] = msg.Header.Digest()
			h.wal = append(h.wal, walEntry{proposal: msg.Header})
		}
	}
	h.m.prune(h.e.rounds.Floor())
	h.check()
}

// check compares every vote and certificate the window holds with the model,
// both ways, and probes lookups around the edges.
func (h *slotHarness) check() {
	h.t.Helper()
	e, m := h.e, h.m
	votes, certs := 0, 0
	for r := e.rounds.Floor(); r < e.rounds.End(); r++ {
		rs := e.rounds.At(r)
		if rs == nil {
			continue
		}
		votes += rs.voted.Len()
		for s, c := range rs.certs {
			if c == nil {
				continue
			}
			certs++
			if c.Header.Round != r || c.Header.Source != types.ValidatorID(s) {
				h.t.Fatalf("step %d: slot (%d, %d) holds the certificate of (%d, %s)", h.step, r, s, c.Header.Round, c.Header.Source)
			}
		}
	}
	if votes != len(m.voted) || certs != len(m.store) {
		h.t.Fatalf("step %d: window holds %d votes and %d certificates, model %d and %d (floor %d)",
			h.step, votes, certs, len(m.voted), len(m.store), m.floor)
	}
	for k, want := range m.voted {
		if rs := e.rounds.At(k.round); rs == nil || !rs.voted.Has(k.origin) || rs.votedFor[k.origin] != want {
			h.t.Fatalf("step %d: vote for (%d, %s) missing or different in the window", h.step, k.round, k.origin)
		}
	}
	for _, c := range m.store {
		if got := e.certAt(c.Header.Round, c.Header.Source); got != c {
			h.t.Fatalf("step %d: certAt(%d, %s) = %v, model holds it", h.step, c.Header.Round, c.Header.Source, got)
		}
	}
	// Lookups that must miss: below the floor, above everything, outside the
	// committee.
	top := e.DAG().HighestRound()
	for _, r := range []types.Round{0, m.floor - 1, m.floor, top, top + 1, e.rounds.End(), e.rounds.End() + 7} {
		for _, s := range []types.ValidatorID{0, types.ValidatorID(h.n - 1), types.ValidatorID(h.n), 1 << 30} {
			if got, want := e.certAt(r, s), m.certAt(r, s); got != want {
				h.t.Fatalf("step %d: certAt(%d, %s) = %v, model %v", h.step, r, s, got, want)
			}
		}
	}
}

func sameCerts(got, want []*Certificate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d certificates, model serves %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("certificate %d is (%d, %s), model serves (%d, %s)", i,
				got[i].Header.Round, got[i].Header.Source, want[i].Header.Round, want[i].Header.Source)
		}
	}
	return nil
}

// certResponse returns the certificates of the one CertResponse in out.
func certResponse(out *Output) []*Certificate {
	for _, u := range out.Unicasts {
		if u.Msg.Kind == KindCertResponse {
			return u.Msg.CertResponse.Certs
		}
	}
	return nil
}

// frontier is the round deliveries centre on: the lowest one at or above the
// floor the harness has not offered in full yet.
func (h *slotHarness) frontier() int {
	r := max(1, int(h.m.floor))
	for r < len(h.world)-3 && h.delivered[r] >= 2*h.n {
		r++
	}
	return r
}

func (h *slotHarness) opDeliver() {
	if h.n == 1 {
		h.opTick() // nobody else: the lone validator certifies its own rounds
		return
	}
	r := h.frontier()
	switch h.rng.Intn(10) {
	case 0:
		r += 2 // parents missing: pends
	case 1, 2:
		r++
	case 3:
		r = max(1, r-1-h.rng.Intn(4)) // old, possibly below the floor
	}
	for k := h.rng.Intn(h.n) + 1; k > 0; k-- {
		h.delivered[r]++
		if c := h.world[r][h.rng.Intn(h.n)]; c != nil {
			h.absorb(h.e.OnMessage(c.Header.Source, &Message{Kind: KindCertificate, Cert: c}, 0))
		}
	}
}

func (h *slotHarness) opHeader() {
	from := types.ValidatorID(h.rng.Intn(h.n))
	floor, top := h.m.floor, h.e.DAG().HighestRound()
	var round types.Round
	switch h.rng.Intn(10) {
	case 0: // far, inside the bound: a laggard voting for the live round
		round = floor + 1000 + types.Round(h.rng.Intn(4000))
	case 1: // at and past the bound
		round = floor + dag.MaxRetainedRounds + types.Round(h.rng.Intn(3))
	case 2:
		round = 1_000_000_000 + types.Round(h.rng.Intn(3))
	default: // around the window, below the floor included
		round = max(floor, 3) - 3 + types.Round(h.rng.Intn(int(max(top, floor)-floor)+7))
	}
	hd := &Header{Round: round, Source: from,
		Batch: &types.Batch{Transactions: []types.Transaction{{ID: uint64(1 + h.rng.Intn(2))}}}}
	switch h.rng.Intn(20) {
	case 0:
		from = types.ValidatorID(h.n + h.rng.Intn(3)) // not a committee member
		hd.Source = from
	case 1:
		hd.Source = from + 1 // relayed under another name
	}
	want := h.m.onHeader(from, hd)
	invalid := h.e.Stats().InvalidMessages
	out := h.e.OnMessage(from, &Message{Kind: KindHeader, Header: hd}, 0)
	voted := len(out.Unicasts) == 1 && out.Unicasts[0].Msg.Kind == KindVote &&
		out.Unicasts[0].To == from && out.Unicasts[0].Msg.Vote.HeaderDigest == hd.Digest()
	if voted != want || (!voted && len(out.Unicasts) != 0) {
		h.t.Fatalf("step %d: header (%d, %s) from %s: voted %v, model %v (floor %d)", h.step, round, hd.Source, from, voted, want, floor)
	}
	if counted := h.e.Stats().InvalidMessages - invalid; (counted == 1) == want || counted > 1 {
		h.t.Fatalf("step %d: header (%d, %s): InvalidMessages moved by %d, voted %v", h.step, round, hd.Source, counted, want)
	}
	h.absorb(out)
}

// opCertifyOwn hands the engine a quorum of votes for its current header.
func (h *slotHarness) opCertifyOwn() {
	for v := 1; v < h.n && h.e.curHeader != nil && !h.e.ownCertFormed; v++ {
		h.absorb(h.e.OnMessage(types.ValidatorID(v), &Message{Kind: KindVote, Vote: &Vote{
			HeaderDigest: h.e.curHeaderDigest, Round: h.e.round, Origin: slotSelf, Voter: types.ValidatorID(v),
		}}, 0))
	}
}

func (h *slotHarness) opTick() {
	h.absorb(h.e.OnTimer(Timer{Kind: TimerRoundDelay, Round: uint64(h.e.Round())}, 0))
	h.absorb(h.e.OnTimer(Timer{Kind: TimerLeader, Round: uint64(h.e.Round())}, 0))
}

// opServe asks for certificates the three ways a peer can and compares each
// answer with the model's: same certificates, same order.
func (h *slotHarness) opServe() {
	limit := h.e.config.MaxSyncBatch
	start := types.Round(h.rng.Intn(int(h.e.DAG().HighestRound()) + 3))
	if err := sameCerts(h.e.certRange(start), h.m.rangeFrom(start, limit)); err != nil {
		h.t.Fatalf("step %d: certRange(%d) (floor %d): %v", h.step, start, h.m.floor, err)
	}
	if h.n > 1 {
		out := h.e.OnMessage(1, &Message{Kind: KindRoundRequest, RoundRequest: &RoundRequest{FromRound: start}}, 0)
		if err := sameCerts(certResponse(out), h.m.rangeFrom(start, limit)); err != nil {
			h.t.Fatalf("step %d: RoundRequest{%d}: %v", h.step, start, err)
		}
		out = h.e.OnMessage(1, &Message{Kind: KindRejoinRequest, RejoinRequest: &RejoinRequest{Frontier: Frontier{HighestRound: start}}}, 0)
		if len(out.Unicasts) != 1 || out.Unicasts[0].Msg.Kind != KindRejoinResponse {
			h.t.Fatalf("step %d: RejoinRequest earned %+v", h.step, out.Unicasts)
		}
		if err := sameCerts(out.Unicasts[0].Msg.RejoinResponse.Certs, h.m.rangeFrom(start, limit)); err != nil {
			h.t.Fatalf("step %d: RejoinRequest{%d}: %v", h.step, start, err)
		}
	}
	// By digest: retained, pruned, never delivered, genesis, nonsense — in a
	// shuffled order, more than one response holds.
	var digests []types.Digest
	for _, v := range h.e.DAG().RoundVertices(0) {
		digests = append(digests, v.Digest())
	}
	digests = append(digests, types.HashBytes([]byte("nobody's")))
	for _, en := range h.wal {
		if en.cert != nil && h.rng.Intn(4) == 0 {
			digests = append(digests, en.cert.Digest())
		}
	}
	if r := h.frontier() + 1; r < len(h.world) {
		for _, c := range h.world[r] {
			if c != nil {
				digests = append(digests, c.Digest())
			}
		}
	}
	h.rng.Shuffle(len(digests), func(i, j int) { digests[i], digests[j] = digests[j], digests[i] })
	digests = digests[:min(len(digests), 3*limit)]
	out := h.e.OnMessage(slotSelf, &Message{Kind: KindCertRequest, CertRequest: &CertRequest{Digests: digests}}, 0)
	if err := sameCerts(certResponse(out), h.m.byDigests(digests, limit)); err != nil {
		h.t.Fatalf("step %d: CertRequest of %d digests: %v", h.step, len(digests), err)
	}
}

// opPrune raises the floor the way serial garbage collection does: committer
// and DAG first, then the engine's own state.
func (h *slotHarness) opPrune() {
	floor := h.m.floor + types.Round(h.rng.Intn(3))
	h.e.committer.Prune(floor)
	h.e.pruneProtocolState(h.e.DAG().PrunedTo())
	h.e.pruneProtocolState(h.m.floor / 2) // moving back is a no-op
	h.absorb(&Output{})
}

// opFastForward installs a snapshot a little above everything held, so the
// window slides past all of it at once. Not at n=1: a snapshot comes from a
// peer, and so would the certificates to go on from it.
func (h *slotHarness) opFastForward() {
	top := max(h.e.DAG().HighestRound(), h.m.floor)
	if h.n == 1 || int(top)+8 >= len(h.world) {
		return
	}
	h.snapMeta = SnapshotMeta{Round: top + 2 + types.Round(h.rng.Intn(3)), CommitSeq: uint64(top)}
	h.snap = &SnapshotInstall{PruneTo: h.snapMeta.Round - types.Round(h.rng.Intn(3))}
	h.absorb(h.e.FastForwardToSnapshot(h.snapMeta, h.snap, 0))
	if h.m.floor != h.snap.PruneTo {
		h.t.Fatalf("step %d: floor %d after fast-forward to %d", h.step, h.m.floor, h.snap.PruneTo)
	}
}

// opRestart kills the engine and recovers a fresh one the way the node does:
// local snapshot, silent WAL replay, RestoreProposal, rejoin handshake. Half
// the time the WAL ends right after an own certificate, so that it sits at
// the frontier — the case completeRejoin adopts instead of re-proposing.
func (h *slotHarness) opRestart() {
	wal := h.wal
	if h.rng.Intn(2) == 0 {
		for i := len(wal) - 1; i >= 0; i-- {
			if c := wal[i].cert; c != nil && c.Header.Source == slotSelf {
				wal = wal[:i+1]
				break
			}
		}
	}
	h.e, h.m, h.wal = h.newEngine(), newSlotModel(h.n), nil
	clear(h.delivered) // what the WAL lost is on offer again
	if h.snap != nil {
		h.absorb(h.e.FastForwardToSnapshot(h.snapMeta, h.snap, 0))
	}
	h.absorb(h.e.Init(0))
	var last *Header
	for _, en := range wal {
		if en.cert != nil {
			h.absorb(h.e.OnMessage(slotSelf, &Message{Kind: KindCertificate, Cert: en.cert}, 0))
		} else if last == nil || en.proposal.Round > last.Round {
			last = en.proposal
		}
	}
	if last != nil {
		certified := h.m.certAt(last.Round, slotSelf) != nil
		adopt := !certified && last.Round >= h.e.Round()
		h.e.RestoreProposal(last)
		if adopt {
			h.m.voted[modelKey{slotSelf, last.Round}] = last.Digest()
			h.wal = append(h.wal, walEntry{proposal: last})
		}
		if (h.e.CurrentProposal() == last) != adopt {
			h.t.Fatalf("step %d: RestoreProposal(round %d) adopted %v, model %v (certified %v, engine round %d)",
				h.step, last.Round, !adopt, adopt, certified, h.e.Round())
		}
		h.absorb(&Output{})
	}
	// The handshake completes on the response that makes a quorum (at n=1,
	// inside StartRejoin); what it must do is decided by the model's certAt.
	complete := func(step func() *Output) {
		q := h.e.DAG().HighestRound()
		for q > 0 && !h.e.DAG().HasQuorumAt(q) {
			q--
		}
		own := h.m.certAt(q+1, slotSelf)
		survived := own != nil && h.e.Round() <= q+1
		out := step()
		if !h.e.Rejoining() && survived {
			h.adopted++
			rebroadcast := false
			for _, msg := range out.Broadcasts {
				rebroadcast = rebroadcast || (msg.Kind == KindCertificate && msg.Cert == own)
			}
			if !rebroadcast || h.e.Round() != q+1 || h.e.CurrentProposal() != nil {
				h.t.Fatalf("step %d: own certificate survived at round %d: rebroadcast %v, engine round %d, proposal %v",
					h.step, q+1, rebroadcast, h.e.Round(), h.e.CurrentProposal())
			}
		}
		h.absorb(out)
	}
	complete(func() *Output { return h.e.StartRejoin(0) })
	for v := 1; h.e.Rejoining(); v++ {
		complete(func() *Output {
			return h.e.OnMessage(types.ValidatorID(v), &Message{Kind: KindRejoinResponse, RejoinResponse: &RejoinResponse{}}, 0)
		})
	}
}

// TestSlotStoreMatchesMapModel drives the engine's slot-addressed state — the
// votes it cast, the certificates it retains — through seeded interleavings of
// everything that reads or writes it, beside the digest- and (origin,
// round)-keyed maps it replaced: every vote and refusal, every served batch
// and every lookup after every step must be the model's.
func TestSlotStoreMatchesMapModel(t *testing.T) {
	for _, n := range []int{1, 4, 50} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			committee, err := types.NewEqualStakeCommittee(n)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := &slotHarness{t: t, rng: rand.New(rand.NewSource(int64(19 + n))), //nolint:gosec // test determinism
				n: n, committee: committee, keys: keys, m: newSlotModel(n)}
			h.e = h.newEngine()
			h.buildWorld(240)
			h.absorb(h.e.Init(0))
			for h.step = 1; h.step <= 1200; h.step++ {
				switch op := h.rng.Intn(100); {
				case op < 40:
					h.opDeliver()
				case op < 60:
					h.opHeader()
				case op < 70:
					h.opCertifyOwn()
				case op < 80:
					h.opTick()
				case op < 92:
					h.opServe()
				case op < 96:
					h.opPrune()
				case op < 97:
					h.opFastForward()
				case h.step > 200 && h.rng.Intn(5) == 0:
					h.opRestart()
				}
			}
			if h.m.floor < 20 {
				t.Fatalf("the window's floor only reached round %d: nothing slid", h.m.floor)
			}
			if n > 1 && h.adopted == 0 {
				t.Fatal("no rejoin adopted a surviving own certificate: that certAt case went unexercised")
			}
		})
	}
}
