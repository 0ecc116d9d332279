package engine

import (
	"math/rand"
	"slices"
	"testing"

	"hammerhead/internal/core"
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
	return buildCertTraceSkipping(committee, rounds, nil)
}

// buildCertTraceSkipping is buildCertTrace without the certificates skip
// names (nil skips none); headers reference only the previous round's
// certificates that exist.
func buildCertTraceSkipping(committee *types.Committee, rounds types.Round, skip func(types.Round, types.ValidatorID) bool) []*Certificate {
	n := committee.Size()
	prev := make([]types.Digest, 0, n)
	for i := 0; i < n; i++ {
		prev = append(prev, dag.NewVertex(0, types.ValidatorID(i), nil, nil, 0).Digest())
	}
	var certs []*Certificate
	for r := types.Round(1); r <= rounds; r++ {
		cur := make([]types.Digest, 0, n)
		for i := 0; i < n; i++ {
			if skip != nil && skip(r, types.ValidatorID(i)) {
				continue
			}
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
// buildCertTrace certificates are accepted), the config mutate makes, and a
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
		Execution: &stubExec{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, collector
}

func feedCerts(eng *Engine, certs []*Certificate) {
	for _, c := range certs {
		msg := &Message{Kind: KindCertificate, Cert: c}
		eng.OnMessage(1, msg, 0)
	}
}

func assertSameCommits(t *testing.T, want, got *commitCollector) {
	t.Helper()
	a, b := want.subs, got.subs
	if len(a) == 0 {
		t.Fatal("trace produced no commits; test is vacuous")
	}
	if len(a) != len(b) {
		t.Fatalf("commit counts differ: want %d, got %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Direct != b[i].Direct ||
			a[i].Anchor.Digest() != b[i].Anchor.Digest() {
			t.Fatalf("commit %d differs: want (idx=%d r=%d %s direct=%v), got (idx=%d r=%d %s direct=%v)",
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

// floorRecorder is an Observer noting each certificate its engine inserts
// and the engine's pruning floor as the insertion begins.
type floorRecorder struct {
	nopObserver
	e        *Engine
	inserted []*Certificate
	floors   []types.Round
}

func (r *floorRecorder) Inserted(c *Certificate) {
	r.inserted = append(r.inserted, c)
	r.floors = append(r.floors, r.e.rounds.Floor())
}

// newFloorEngine is validator 0 under the HammerHead scheduler, switching
// schedules every 3 commits and pruning GCDepth 4 below the floor every
// gcEvery commits: both the committer's ordering floor and the scheduler's retention
// bound take part in the floor garbageCollect computes.
func newFloorEngine(t *testing.T, committee *types.Committee) (*Engine, *floorRecorder, *commitCollector) {
	t.Helper()
	d := dag.New(committee)
	hh := core.DefaultConfig()
	hh.EpochCommits = 3
	sched, err := core.NewManager(committee, d, hh, 0)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = false
	cfg.GCDepth = 4
	rec, commits := &floorRecorder{}, &commitCollector{}
	e, err := New(Params{
		Config: cfg, Committee: committee, Keys: kp, Batches: nilBatches{},
		Scheduler: sched, DAG: d, Commits: commits, Observer: rec,
		Execution: &stubExec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.e = e
	return e, rec, commits
}

// TestOneFloor pins the engine's single pruning floor: after every message
// the engine's round window and the DAG are pruned to the same round, the one
// garbageCollect computes. A snapshot install is no exception: it moves both
// to the install's PruneTo, and TestSlotStoreMatchesMapModel checks the same
// equality across installs and restarts.
//
// The live engine receives a 120-round trace, one validator missing from
// every third round, shuffled within windows of ten certificates, so
// certificates pend on missing parents and insert in cascades. A fresh engine
// fed the recorded insertion sequence must see the same floor at every
// insertion and deliver the same commits.
func TestOneFloor(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	trace := buildCertTraceSkipping(committee, 120, func(r types.Round, id types.ValidatorID) bool {
		return r%3 == 0 && id == types.ValidatorID(r/3%4)
	})
	delivery := slices.Clone(trace)
	rng := rand.New(rand.NewSource(5)) //nolint:gosec // test determinism
	for i := 0; i < len(delivery); i += 10 {
		w := delivery[i:min(i+10, len(delivery))]
		rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
	}
	feed := func(label string, e *Engine, certs []*Certificate) {
		t.Helper()
		for i, c := range certs {
			e.OnMessage(1, &Message{Kind: KindCertificate, Cert: c}, 0)
			if got, want := e.rounds.Floor(), e.dagStore.PrunedTo(); got != want {
				t.Fatalf("%s: message %d (round %d): engine floor %d, DAG floor %d", label, i, c.Header.Round, got, want)
			}
		}
	}

	live, liveRec, liveCommits := newFloorEngine(t, committee)
	feed("live", live, delivery)
	if len(liveRec.inserted) != len(trace) || live.Stats().CertsPended == 0 {
		t.Fatalf("live engine inserted %d of %d certificates, %d pended: want all, some pended",
			len(liveRec.inserted), len(trace), live.Stats().CertsPended)
	}
	if floor := live.rounds.Floor(); floor < 30 {
		t.Fatalf("floor only reached round %d: nothing was pruned", floor)
	}

	replay, replayRec, replayCommits := newFloorEngine(t, committee)
	feed("replay", replay, liveRec.inserted)
	if len(replayRec.floors) != len(liveRec.floors) {
		t.Fatalf("replay inserted %d certificates, live %d", len(replayRec.floors), len(liveRec.floors))
	}
	for i := range liveRec.floors {
		if replayRec.floors[i] != liveRec.floors[i] {
			t.Fatalf("insertion %d: replayed floor %d, live floor %d", i, replayRec.floors[i], liveRec.floors[i])
		}
	}
	if got, want := replay.rounds.Floor(), live.rounds.Floor(); got != want {
		t.Fatalf("final floor: replayed %d, live %d", got, want)
	}
	assertSameCommits(t, liveCommits, replayCommits)
}

// TestPendingStateGarbageCollected is the regression test for the pending
// leak: a certificate whose parent edge never resolves (a Byzantine header
// with a fabricated edge — voters never check edges, so it certifies) waits
// in its slot of the round window, and must not survive garbage collection
// once the commit floor passes its round. Nor may it keep the progress
// watchdog pulling for it.
func TestPendingStateGarbageCollected(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, collector := newTraceEngine(t, committee, func(c *Config) { c.GCDepth = 4 })
	// Ghost-parent certificate at round 2: one edge that exists nowhere. The
	// honest trace leaves its slot empty, so only pruning can drop it.
	ghost := &Certificate{Header: Header{
		Round:  2,
		Source: 3,
		Edges:  []types.Digest{types.HashBytes([]byte("no such parent"))},
	}}
	for j := 0; j < 4; j++ {
		ghost.Votes = append(ghost.Votes, VoteSig{Voter: types.ValidatorID(j)})
	}
	eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: ghost}, 0)
	if p := eng.SyncBacklog(); p != 1 || eng.pendingAt(2, 3) != ghost {
		t.Fatalf("ghost cert must pend in its slot: backlog = %d", p)
	}
	eng.progressLastRound = eng.round + 1 // not stuck: the pull is for the ghost alone
	if from, ok := eng.progressPull(); !ok || from != 1 {
		t.Fatalf("watchdog pull for the pending ghost: (%d, %v), want (1, true)", from, ok)
	}

	// Drive enough honest rounds that the GC floor passes round 2.
	feedCerts(eng, buildCertTraceSkipping(committee, 60, func(r types.Round, s types.ValidatorID) bool { return r == 2 && s == 3 }))

	if len(collector.subs) == 0 {
		t.Fatal("honest trace must commit")
	}
	if eng.rounds.Floor() <= 2 {
		t.Fatalf("floor only reached round %d", eng.rounds.Floor())
	}
	if p := eng.SyncBacklog(); p != 0 {
		t.Fatalf("pending state leaked past GC: backlog = %d", p)
	}
	eng.progressLastRound = eng.round + 1 // not stuck
	if from, ok := eng.progressPull(); ok {
		// A stale pending entry would keep the watchdog pulling (and peers
		// answering with full sync batches) forever.
		t.Fatalf("watchdog pulls from round %d with nothing pending", from)
	}
}

// TestCertFloorDropsStaleCertificates: certificates below the GC floor are
// dropped on arrival instead of parked in the window forever.
func TestCertFloorDropsStaleCertificates(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, func(c *Config) { c.GCDepth = 4 })
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
	out := eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: stale}, 0)
	if p := eng.SyncBacklog(); p != 0 || len(out.Unicasts) != 0 {
		t.Fatalf("below-floor cert must be dropped: backlog = %d, %d pulls", p, len(out.Unicasts))
	}
	if eng.Stats().CertsReceived != before {
		t.Fatal("below-floor cert must not count as received")
	}
}

// TestPendingEvictionBoundsFlood: an attacker fabricating ghost-parent
// certificates at arbitrary future rounds pends nothing — a certificate more
// than gapThreshold rounds above what the validator holds is not kept — and
// buys at most one round pull per resync interval, the first at once. Near
// the frontier each (round, source) slot keeps one certificate: the window
// bounds what the flood parks there.
func TestPendingEvictionBoundsFlood(t *testing.T) {
	const n = 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)
	interval := eng.config.resyncInterval().Nanoseconds()
	const flood, intervals = 4000, 10
	pulls := 0
	for i := 0; i < flood; i++ {
		ghost := &Certificate{Header: Header{
			Round:  types.Round(100 + i), // far future, never insertable
			Source: 3,
			Edges:  []types.Digest{types.HashBytes([]byte{byte(i), byte(i >> 8), 0xFF})},
		}}
		for j := 0; j < n; j++ {
			ghost.Votes = append(ghost.Votes, VoteSig{Voter: types.ValidatorID(j)})
		}
		out := eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: ghost}, int64(i)*intervals*interval/flood)
		for _, u := range out.Unicasts {
			if u.Msg.Kind != KindRoundRequest || u.Msg.RoundRequest.FromRound != 0 {
				t.Fatalf("ghost %d earned %s", i, u.Msg)
			}
			pulls++
		}
		if i == 0 && pulls != 1 {
			t.Fatal("the first pull was held back")
		}
	}
	if p := eng.SyncBacklog(); p != 0 {
		t.Fatalf("a far-future flood pended %d certificates", p)
	}
	if pulls > intervals {
		t.Fatalf("a flood over %d resync intervals bought %d pulls", intervals, pulls)
	}

	// Near the frontier: every slot of the rounds within reach holds one
	// certificate, however many arrive for it.
	for i := 0; i < flood; i++ {
		eng.OnMessage(1, &Message{Kind: KindCertificate, Cert: ghostCert(n, types.Round(1+i%gapThreshold), types.ValidatorID(i/gapThreshold%n), byte(i))}, 0)
	}
	if p := eng.SyncBacklog(); p != gapThreshold*n {
		t.Fatalf("a flood within %d rounds pended %d certificates, want one per slot (%d)", gapThreshold, p, gapThreshold*n)
	}
}

// TestRoundRequestServedFromIndex checks the per-round index path: ascending
// rounds, source order within a round, maxSyncBatch cap, floor clamping, and
// that requests from self are ignored.
func TestRoundRequestServedFromIndex(t *testing.T) {
	// A committee of 20, so rounds 3 and up hold more than maxSyncBatch
	// certificates before the GC depth prunes anything.
	const n = 20
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)
	feedCerts(eng, buildCertTrace(t, committee, 3+maxSyncBatch/n+2))

	out := &Output{}
	eng.onRoundRequest(2, &RoundRequest{FromRound: 3}, out)
	if len(out.Unicasts) != 1 || out.Unicasts[0].To != 2 {
		t.Fatalf("want one response to v2, got %+v", out.Unicasts)
	}
	certs := out.Unicasts[0].Msg.CertResponse.Certs
	if len(certs) != maxSyncBatch {
		t.Fatalf("batch = %d certs, want capped at %d", len(certs), maxSyncBatch)
	}
	for i, c := range certs {
		wantRound := types.Round(3 + i/n)
		wantSource := types.ValidatorID(i % n)
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
