package bullshark_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/dag"
	"hammerhead/internal/dag/dagtest"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// fixedScheduler is a non-switching scheduler with an explicit slot cycle,
// letting tests pin leaders without seed hunting. Like the round-robin
// baseline it is immutable, so it is its own export, and encodes to nothing.
type fixedScheduler struct {
	history *leader.History
}

func newFixedScheduler(t *testing.T, slots []types.ValidatorID) *fixedScheduler {
	t.Helper()
	s, err := leader.NewSchedule(0, slots)
	if err != nil {
		t.Fatal(err)
	}
	return &fixedScheduler{history: leader.NewHistory(s)}
}

func (f *fixedScheduler) LeaderAt(r types.Round) types.ValidatorID { return f.history.LeaderAt(r) }
func (f *fixedScheduler) MaybeSwitch(leader.AnchorInfo) bool       { return false }
func (f *fixedScheduler) OnAnchorOrdered(leader.AnchorInfo)        {}
func (f *fixedScheduler) ExportState() leader.SchedulerState       { return f }
func (f *fixedScheduler) Encode() ([]byte, error)                  { return nil, nil }
func (f *fixedScheduler) RestoreState([]byte) error                { return nil }
func (f *fixedScheduler) FastForwardTo(types.Round)                {}
func (f *fixedScheduler) MinRetainedRound() types.Round            { return math.MaxUint64 }

func equalCommittee(t *testing.T, n int) *types.Committee {
	t.Helper()
	c, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDirectCommitOrdersCausalHistory(t *testing.T) {
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	for r := types.Round(1); r <= 4; r++ {
		b.AddFullRound(r, nil)
	}
	sched := newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3}) // leader(2) = v1
	cm := bullshark.New(c, b.DAG, sched)

	// All round-3 vertices (the anchor's voters) are already in the DAG, so
	// the first voter processed finds f+1 stake of support.
	subs := cm.ProcessVertex(b.Vertex(3, 0))
	if len(subs) != 1 {
		t.Fatalf("committed %d sub-DAGs, want 1", len(subs))
	}
	sub := subs[0]
	if sub.Anchor != b.Vertex(2, 1) {
		t.Fatalf("anchor = %v, want round-2 vertex of v1", sub.Anchor)
	}
	if !sub.Direct {
		t.Fatal("first commit must be direct")
	}
	// History: 4 genesis + 4 round-1 + the anchor = 9 vertices, sorted.
	if len(sub.Vertices) != 9 {
		t.Fatalf("ordered %d vertices, want 9", len(sub.Vertices))
	}
	if sub.Vertices[len(sub.Vertices)-1] != sub.Anchor {
		t.Fatal("anchor must be delivered last in its sub-DAG")
	}
	for i := 1; i < len(sub.Vertices); i++ {
		p, q := sub.Vertices[i-1], sub.Vertices[i]
		if p.Round > q.Round || (p.Round == q.Round && p.Source >= q.Source) {
			t.Fatal("sub-DAG not in deterministic (round, source) order")
		}
	}
	if got := cm.LastOrderedRound(); got != 2 {
		t.Fatalf("LastOrderedRound = %d, want 2", got)
	}
}

func TestProcessVertexIgnoresEvenAndEarlyRounds(t *testing.T) {
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	for r := types.Round(1); r <= 4; r++ {
		b.AddFullRound(r, nil)
	}
	cm := bullshark.New(c, b.DAG, newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3}))
	if subs := cm.ProcessVertex(b.Vertex(4, 0)); subs != nil {
		t.Fatal("even-round vertices are anchors, not voters: no trigger")
	}
	if subs := cm.ProcessVertex(b.Vertex(1, 0)); subs != nil {
		t.Fatal("round-1 vertices must not trigger commits (anchor would be genesis)")
	}
}

func TestNoDoubleCommit(t *testing.T) {
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	for r := types.Round(1); r <= 4; r++ {
		b.AddFullRound(r, nil)
	}
	cm := bullshark.New(c, b.DAG, newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3}))
	if subs := cm.ProcessVertex(b.Vertex(3, 0)); len(subs) != 1 {
		t.Fatalf("first trigger: %d commits, want 1", len(subs))
	}
	if subs := cm.ProcessVertex(b.Vertex(3, 1)); subs != nil {
		t.Fatal("a later voter for the same anchor must not re-commit")
	}
}

func TestInsufficientVotesNoCommit(t *testing.T) {
	// Only one round-3 vertex links the round-2 leader: 1 < f+1 = 2.
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	b.AddFullRound(2, nil)
	leader2 := types.ValidatorID(1)
	b.AddVertex(3, 0, []types.ValidatorID{0, 1, 2, 3}) // votes for leader
	for _, id := range []types.ValidatorID{1, 2, 3} {
		b.AddVertex(3, id, []types.ValidatorID{0, 2, 3}) // avoids leader2
	}
	b.AddFullRound(4, nil)
	cm := bullshark.New(c, b.DAG, newFixedScheduler(t, []types.ValidatorID{0, leader2, 2, 3}))
	for _, id := range c.ValidatorIDs() {
		if subs := cm.ProcessVertex(b.Vertex(3, id)); subs != nil {
			t.Fatal("anchor with one vote must not commit directly")
		}
	}
}

func TestIndirectCommitThroughLaterAnchor(t *testing.T) {
	// Anchor at round 2 gathers only 1 direct vote, but the round-4 anchor
	// reaches it by path, so it commits indirectly, before the round-4 one.
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	b.AddFullRound(2, nil)
	b.AddVertex(3, 0, []types.ValidatorID{0, 1, 2, 3})
	for _, id := range []types.ValidatorID{1, 2, 3} {
		b.AddVertex(3, id, []types.ValidatorID{0, 2, 3})
	}
	b.AddFullRound(4, nil) // round-4 vertices link all round-3, incl. v0's
	b.AddFullRound(5, nil)
	b.AddFullRound(6, nil)

	sched := newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3}) // leader(2)=v1, leader(4)=v2
	cm := bullshark.New(c, b.DAG, sched)
	var all []bullshark.CommittedSubDAG
	for r := types.Round(4); r <= 6; r++ {
		for _, id := range c.ValidatorIDs() {
			all = append(all, cm.ProcessVertex(b.Vertex(r, id))...)
		}
	}
	if len(all) != 2 {
		t.Fatalf("committed %d sub-DAGs, want 2", len(all))
	}
	if all[0].Anchor != b.Vertex(2, 1) || all[0].Direct {
		t.Fatalf("first commit must be the indirect round-2 anchor, got %v (direct=%v)", all[0].Anchor, all[0].Direct)
	}
	if all[1].Anchor != b.Vertex(4, 2) || !all[1].Direct {
		t.Fatalf("second commit must be the direct round-4 anchor, got %v", all[1].Anchor)
	}
	stats := cm.Stats()
	if stats.DirectCommits != 1 || stats.IndirectCommits != 1 {
		t.Fatalf("stats = %+v, want 1 direct + 1 indirect", stats)
	}
}

func TestSkippedAnchorWhenLeaderCrashed(t *testing.T) {
	// Round-2 leader v1 produced nothing: its anchor round is skipped and
	// counted, and the round-4 anchor still commits.
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	live := []types.ValidatorID{0, 2, 3}
	b.AddFullRound(1, live)
	b.AddFullRound(2, live)
	b.AddFullRound(3, live)
	b.AddFullRound(4, live)
	b.AddFullRound(5, live)
	b.AddFullRound(6, live)

	sched := newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3}) // leader(2)=v1 crashed, leader(4)=v2
	cm := bullshark.New(c, b.DAG, sched)
	var all []bullshark.CommittedSubDAG
	for r := types.Round(4); r <= 6; r++ {
		for _, id := range live {
			all = append(all, cm.ProcessVertex(b.Vertex(r, id))...)
		}
	}
	if len(all) != 1 {
		t.Fatalf("committed %d sub-DAGs, want 1 (round 4)", len(all))
	}
	if all[0].Anchor != b.Vertex(4, 2) {
		t.Fatalf("anchor = %v, want round-4 v2", all[0].Anchor)
	}
	if got := cm.Stats().SkippedAnchors; got != 1 {
		t.Fatalf("SkippedAnchors = %d, want 1", got)
	}
}

func TestTxCount(t *testing.T) {
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	for r := types.Round(1); r <= 4; r++ {
		b.AddFullRound(r, nil)
	}
	cm := bullshark.New(c, b.DAG, newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3}))
	subs := cm.ProcessVertex(b.Vertex(3, 0))
	if len(subs) != 1 {
		t.Fatal("want one commit")
	}
	// dagtest gives each vertex a 1-tx batch; 9 vertices ordered.
	if got := subs[0].TxCount(); got != 9 {
		t.Fatalf("TxCount = %d, want 9", got)
	}
}

func TestPruneKeepsCommitterWorking(t *testing.T) {
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	sched := newFixedScheduler(t, []types.ValidatorID{0, 1, 2, 3})
	cm := bullshark.New(c, b.DAG, sched)
	var commits int
	for r := types.Round(1); r <= 20; r++ {
		b.AddFullRound(r, nil)
		if !r.IsAnchorRound() && r >= 3 {
			commits += len(cm.ProcessVertex(b.Vertex(r, 0)))
		}
		if r == 10 {
			cm.Prune(6)
		}
	}
	if commits != 9 { // anchors at rounds 2..18
		t.Fatalf("commits = %d, want 9", commits)
	}
	if b.DAG.PrunedTo() != 6 {
		t.Fatalf("PrunedTo = %d, want 6", b.DAG.PrunedTo())
	}
}

// commitTrace flattens a committed sequence for equality comparison.
type commitTrace struct {
	anchors  []types.Digest
	vertices []types.Digest
}

func traceOf(subs []bullshark.CommittedSubDAG) commitTrace {
	var tr commitTrace
	for _, s := range subs {
		tr.anchors = append(tr.anchors, s.Anchor.Digest())
		for _, v := range s.Vertices {
			tr.vertices = append(tr.vertices, v.Digest())
		}
	}
	return tr
}

func isPrefix(short, long []types.Digest) bool {
	if len(short) > len(long) {
		return false
	}
	for i := range short {
		if short[i] != long[i] {
			return false
		}
	}
	return true
}

// hammerheadCommitter builds a committer driven by a HammerHead manager over
// the given DAG, its initial schedule permuted by seed.
func hammerheadCommitter(t *testing.T, d *dag.DAG, c *types.Committee, cfg core.Config, seed uint64) (*bullshark.Committer, *core.Manager) {
	t.Helper()
	m, err := core.NewManager(c, d, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return bullshark.New(c, d, m), m
}

// feed processes the DAG's vertices in rounds <= maxRound; within each round
// the order is shuffled by rng (or ascending if rng is nil).
func feed(cm *bullshark.Committer, b *dagtest.Builder, maxRound types.Round, rng *rand.Rand) []bullshark.CommittedSubDAG {
	var out []bullshark.CommittedSubDAG
	for r := types.Round(1); r <= maxRound; r++ {
		vs := b.DAG.RoundVertices(r)
		if rng != nil {
			rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		}
		for _, v := range vs {
			out = append(out, cm.ProcessVertex(v)...)
		}
	}
	return out
}

func TestSafetyAcrossArrivalOrdersAndViews(t *testing.T) {
	// The paper's Total Order + Schedule Agreement in executable form: over
	// a randomized DAG with a crashed validator, committers that (a) see
	// vertices in different orders and (b) have only a prefix view must
	// produce prefix-consistent commit sequences and identical schedule
	// histories on the shared prefix.
	c := equalCommittee(t, 7)
	for seed := int64(0); seed < 8; seed++ {
		b := dagtest.NewBuilder(c)
		rng := rand.New(rand.NewSource(seed))
		crashed := map[types.ValidatorID]bool{types.ValidatorID(seed % 7): true}
		b.GrowRandom(rng, 1, 40, crashed)

		cfg := core.DefaultConfig()
		cfg.EpochCommits = 3
		cmA, mA := hammerheadCommitter(t, b.DAG, c, cfg, 0)
		cmB, _ := hammerheadCommitter(t, b.DAG, c, cfg, 0)

		subsA := feed(cmA, b, 40, nil)
		subsB := feed(cmB, b, 30, rand.New(rand.NewSource(seed+1000)))
		trA, trB := traceOf(subsA), traceOf(subsB)

		if len(trA.anchors) == 0 {
			t.Fatalf("seed %d: no commits at all", seed)
		}
		if !isPrefix(trB.anchors, trA.anchors) {
			t.Fatalf("seed %d: anchor sequences not prefix-consistent", seed)
		}
		if !isPrefix(trB.vertices, trA.vertices) {
			t.Fatalf("seed %d: delivered vertex sequences not prefix-consistent", seed)
		}
		if mA.SwitchCount() == 0 {
			t.Fatalf("seed %d: no schedule switch", seed)
		}
		// Schedule agreement: every commit of the shared prefix carries the
		// same scheduler state, byte for byte.
		for i := range subsB {
			stA, err := subsA[i].SchedulerState.Encode()
			if err != nil {
				t.Fatal(err)
			}
			stB, err := subsB[i].SchedulerState.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stA, stB) {
				t.Fatalf("seed %d: commit %d carries a different scheduler state", seed, i)
			}
		}
	}
}

func TestSafetyRoundRobinBaseline(t *testing.T) {
	// Same property for the baseline scheduler (no switches involved).
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	rng := rand.New(rand.NewSource(9))
	b.GrowRandom(rng, 1, 30, nil)

	cmA := bullshark.New(c, b.DAG, leader.NewRoundRobin(c, 5))
	cmB := bullshark.New(c, b.DAG, leader.NewRoundRobin(c, 5))
	trA := traceOf(feed(cmA, b, 30, nil))
	trB := traceOf(feed(cmB, b, 22, rand.New(rand.NewSource(10))))
	if len(trA.anchors) == 0 {
		t.Fatal("no commits")
	}
	if !isPrefix(trB.anchors, trA.anchors) || !isPrefix(trB.vertices, trA.vertices) {
		t.Fatal("baseline commit sequences not prefix-consistent")
	}
}

func TestEveryVertexDeliveredExactlyOnce(t *testing.T) {
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	rng := rand.New(rand.NewSource(3))
	b.GrowRandom(rng, 1, 30, nil)
	cfg := core.DefaultConfig()
	cfg.EpochCommits = 2
	cm, _ := hammerheadCommitter(t, b.DAG, c, cfg, 0)
	subs := feed(cm, b, 30, nil)
	tr := traceOf(subs)

	seen := map[types.Digest]bool{}
	for _, d := range tr.vertices {
		if seen[d] {
			t.Fatalf("vertex %s delivered twice", d)
		}
		seen[d] = true
	}
	// The delivered set must be exactly the union of the committed anchors'
	// causal histories — nothing missing, nothing extra. (Vertices outside
	// every committed history, e.g. never referenced by a later round, are
	// legitimately undelivered.)
	expected := map[types.Digest]bool{}
	for _, sub := range subs {
		av, ok := b.DAG.Get(sub.Anchor.Round, sub.Anchor.Source)
		if !ok || av.Digest() != sub.Anchor.Digest() {
			t.Fatalf("anchor %s not in DAG", sub.Anchor.Digest())
		}
		for _, v := range b.DAG.CausalHistory(av, 0, nil) {
			expected[v.Digest()] = true
		}
	}
	if len(expected) != len(seen) {
		t.Fatalf("delivered %d vertices, causal-history union has %d", len(seen), len(expected))
	}
	for d := range expected {
		if !seen[d] {
			t.Fatalf("vertex %s in a committed history but never delivered", d)
		}
	}
}

func TestHammerHeadReducesSkippedAnchors(t *testing.T) {
	// With a crashed validator, the baseline keeps skipping its anchor
	// rounds forever while HammerHead stops after the first epoch — the
	// Leader Utilization property (Lemma 6).
	c := equalCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	const rounds = 80
	crashed := map[types.ValidatorID]bool{3: true}
	rng := rand.New(rand.NewSource(11))
	b.GrowRandom(rng, 1, rounds, crashed)

	rr := bullshark.New(c, b.DAG, leader.NewRoundRobin(c, 1))
	cfg := core.DefaultConfig()
	cfg.EpochCommits = 4
	hh, m := hammerheadCommitter(t, b.DAG, c, cfg, 1)

	feed(rr, b, rounds, nil)
	feed(hh, b, rounds, nil)

	rrSkipped := rr.Stats().SkippedAnchors
	hhSkipped := hh.Stats().SkippedAnchors
	if m.SwitchCount() == 0 {
		t.Fatal("HammerHead never switched schedules")
	}
	if hhSkipped >= rrSkipped {
		t.Fatalf("HammerHead skipped %d anchors, baseline %d: want strictly fewer", hhSkipped, rrSkipped)
	}
	// Lemma 6 bound: O(T) rounds per crashed leader. With an epoch of 4
	// commits (about T=10 rounds, 5 anchors) and one crashed leader holding
	// 1/4 slots, the skips must be confined to roughly the first epoch:
	// allow 2*T/2 anchor slots.
	if hhSkipped > 10 {
		t.Fatalf("HammerHead skipped %d anchors, want <= 10 (bounded by O(T)·f)", hhSkipped)
	}
	excluded := m.Excluded()
	if len(excluded) != 1 || excluded[0] != 3 {
		t.Fatalf("Excluded = %v, want [v3]", excluded)
	}
}
