package dag_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"hammerhead/internal/dag"
	"hammerhead/internal/dag/dagtest"
	"hammerhead/internal/types"
)

func newCommittee(t *testing.T, n int) *types.Committee {
	t.Helper()
	c, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInsertAndGet(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)

	v, ok := b.DAG.Get(1, 2)
	if !ok {
		t.Fatal("vertex (1, v2) must exist")
	}
	if v.Round != 1 || v.Source != 2 {
		t.Fatalf("got %v", v)
	}
	byDigest, ok := b.DAG.ByDigest(v.Digest())
	if !ok || byDigest != v {
		t.Fatal("ByDigest must return the same vertex")
	}
	if _, ok := b.DAG.Get(1, 99); ok {
		t.Fatal("unknown source must not resolve")
	}
}

func TestInsertIdempotent(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	v, _ := b.DAG.Get(0, 0)
	if err := b.DAG.Insert(v); err != nil {
		t.Fatalf("re-inserting the same vertex must be a no-op, got %v", err)
	}
}

func TestInsertRejectsMissingParents(t *testing.T) {
	c := newCommittee(t, 4)
	d := dag.New(c)
	ghost := types.HashBytes([]byte("ghost"))
	v := dag.NewVertex(1, 0, []types.Digest{ghost}, nil, 0)
	if err := d.Insert(v); !errors.Is(err, dag.ErrMissingParents) {
		t.Fatalf("err = %v, want ErrMissingParents", err)
	}
}

func TestInsertRejectsSlotConflict(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	// A different round-0 vertex for validator 0 (different payload digest).
	v2 := dag.NewVertex(0, 0, nil, &types.Batch{Transactions: []types.Transaction{{ID: 999}}}, 0)
	if err := b.DAG.Insert(v2); !errors.Is(err, dag.ErrSlotOccupied) {
		t.Fatalf("err = %v, want ErrSlotOccupied", err)
	}
}

func TestInsertRejectsSkippingEdges(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	// Edge from round 3 directly to round 1 is invalid.
	parent := b.Vertex(1, 0)
	v := dag.NewVertex(3, 0, []types.Digest{parent.Digest()}, nil, 0)
	if err := b.DAG.Insert(v); !errors.Is(err, dag.ErrBadEdgeRound) {
		t.Fatalf("err = %v, want ErrBadEdgeRound", err)
	}
}

func TestRoundStakeAndQuorum(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, []types.ValidatorID{0, 1})
	if b.DAG.HasQuorumAt(1) {
		t.Fatal("2 of 4 must not be a quorum")
	}
	b.AddVertex(1, 2, []types.ValidatorID{0, 1, 2, 3})
	if !b.DAG.HasQuorumAt(1) {
		t.Fatal("3 of 4 must be a quorum")
	}
	if got := b.DAG.RoundStake(1); got != 3 {
		t.Fatalf("RoundStake = %d, want 3", got)
	}
}

func TestPathDirectAndTransitive(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	b.AddFullRound(2, nil)

	v2 := b.Vertex(2, 0)
	v1 := b.Vertex(1, 3)
	v0 := b.Vertex(0, 2)
	if !b.DAG.Path(v2, v1) {
		t.Fatal("one-hop path must exist")
	}
	if !b.DAG.Path(v2, v0) {
		t.Fatal("two-hop path must exist")
	}
	if !b.DAG.Path(v2, v2) {
		t.Fatal("reflexive path must hold")
	}
	if b.DAG.Path(v1, v2) {
		t.Fatal("paths must not go up in rounds")
	}
}

func TestPathAbsentWhenAvoided(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	// Round 1: everyone avoids validator 3's round-0 vertex.
	b.AddRoundAvoiding(1, nil, map[types.ValidatorID]bool{3: true})
	b.AddFullRound(2, nil)

	from := b.Vertex(2, 1)
	to := b.Vertex(0, 3)
	if b.DAG.Path(from, to) {
		t.Fatal("no path may exist to an avoided vertex")
	}
}

func TestHasEdge(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddVertex(1, 0, []types.ValidatorID{0, 1, 2})
	v := b.Vertex(1, 0)
	if !b.DAG.HasEdge(v, b.Vertex(0, 1)) {
		t.Fatal("edge to referenced parent must exist")
	}
	if b.DAG.HasEdge(v, b.Vertex(0, 3)) {
		t.Fatal("edge to unreferenced parent must not exist")
	}
}

func TestCausalHistoryOrderAndBound(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	b.AddFullRound(2, nil)

	v := b.Vertex(2, 0)
	hist := b.DAG.CausalHistory(v, 1, nil)
	// Rounds 1 (4 vertices) and 2 (just v): 5 total, sorted by (round, source).
	if len(hist) != 5 {
		t.Fatalf("history size = %d, want 5", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		prev, cur := hist[i-1], hist[i]
		if prev.Round > cur.Round || (prev.Round == cur.Round && prev.Source >= cur.Source) {
			t.Fatalf("history not sorted at %d: %v then %v", i, prev, cur)
		}
	}
	if hist[len(hist)-1] != v {
		t.Fatal("history must include the start vertex last")
	}
}

func TestCausalHistorySkipPredicate(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	b.AddFullRound(2, nil)

	v := b.Vertex(2, 0)
	skipped := b.Vertex(1, 1)
	hist := b.DAG.CausalHistory(v, 0, func(u *dag.Vertex) bool { return u == skipped })
	for _, u := range hist {
		if u == skipped {
			t.Fatal("skip predicate must exclude the vertex")
		}
	}
	// Everything else must still be reachable (round 0 via other parents).
	if len(hist) != 1+4+4-1 {
		t.Fatalf("history size = %d, want 8", len(hist))
	}
}

func TestPrune(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	for r := types.Round(1); r <= 6; r++ {
		b.AddFullRound(r, nil)
	}
	before := b.DAG.VertexCount()
	b.DAG.Prune(3)
	if got := b.DAG.PrunedTo(); got != 3 {
		t.Fatalf("PrunedTo = %d, want 3", got)
	}
	if got := b.DAG.VertexCount(); got != before-3*4 {
		t.Fatalf("VertexCount = %d, want %d", got, before-3*4)
	}
	if _, ok := b.DAG.Get(2, 0); ok {
		t.Fatal("pruned vertex must be gone")
	}
	// Inserting below the floor fails.
	v := dag.NewVertex(1, 0, nil, nil, 0)
	if err := b.DAG.Insert(v); !errors.Is(err, dag.ErrPruned) {
		t.Fatalf("err = %v, want ErrPruned", err)
	}
	// Pruning backwards is a no-op.
	b.DAG.Prune(1)
	if got := b.DAG.PrunedTo(); got != 3 {
		t.Fatalf("PrunedTo after backwards prune = %d, want 3", got)
	}
}

func TestGrowRandomMaintainsQuorums(t *testing.T) {
	c := newCommittee(t, 7)
	b := dagtest.NewBuilder(c)
	rng := rand.New(rand.NewSource(42))
	b.GrowRandom(rng, 1, 10, map[types.ValidatorID]bool{6: true})
	for r := types.Round(1); r <= 10; r++ {
		if !b.DAG.HasQuorumAt(r) {
			t.Fatalf("round %d lacks quorum", r)
		}
		if _, ok := b.DAG.Get(r, 6); ok {
			t.Fatalf("crashed validator produced a vertex at round %d", r)
		}
		for _, v := range b.DAG.RoundVertices(r) {
			var acc types.Stake
			for _, e := range v.Edges {
				p, ok := b.DAG.ByDigest(e)
				if !ok {
					t.Fatalf("dangling edge at round %d", r)
				}
				acc += c.Stake(p.Source)
			}
			if acc < c.QuorumThreshold() {
				t.Fatalf("vertex %v references < quorum stake (%d)", v, acc)
			}
		}
	}
}

func TestComputeDigestSensitivity(t *testing.T) {
	e1 := types.HashBytes([]byte("a"))
	e2 := types.HashBytes([]byte("b"))
	base := dag.ComputeDigest(4, 1, []types.Digest{e1, e2}, types.ZeroDigest)
	if base == dag.ComputeDigest(5, 1, []types.Digest{e1, e2}, types.ZeroDigest) {
		t.Fatal("digest must depend on round")
	}
	if base == dag.ComputeDigest(4, 2, []types.Digest{e1, e2}, types.ZeroDigest) {
		t.Fatal("digest must depend on source")
	}
	if base == dag.ComputeDigest(4, 1, []types.Digest{e2, e1}, types.ZeroDigest) {
		t.Fatal("digest must depend on edge order")
	}
	if base == dag.ComputeDigest(4, 1, []types.Digest{e1}, types.ZeroDigest) {
		t.Fatal("digest must depend on edge set")
	}
	if base == dag.ComputeDigest(4, 1, []types.Digest{e1, e2}, types.HashBytes([]byte("p"))) {
		t.Fatal("digest must depend on payload digest")
	}
}

// TestInsertRejectsFarRounds: a vertex cannot open a round far above the rest
// of the DAG (a Byzantine certificate might try; the window of rounds costs a
// pointer per round skipped). Past MaxRetainedRounds from the floor nothing
// is even looked at. Above the floor a vertex needs a quorum of parents one
// round down, so a parentless one is refused wherever it sits — except one
// round above an empty floor round, where a DAG fed from round 1 with no
// genesis round starts. At the floor itself, its parents gone, a vertex
// enters without them.
func TestInsertRejectsFarRounds(t *testing.T) {
	d := dag.New(newCommittee(t, 4))
	far := dag.NewVertex(1<<20, 1, nil, nil, 0)
	if err := d.Insert(far); !errors.Is(err, dag.ErrRoundTooFar) {
		t.Fatalf("err = %v, want ErrRoundTooFar", err)
	}
	if err := d.Insert(dag.NewVertex(5, 0, nil, nil, 0)); !errors.Is(err, dag.ErrTooFewParents) {
		t.Fatalf("a parentless vertex above a pristine DAG's floor: err = %v, want ErrTooFewParents", err)
	}
	if err := d.Insert(dag.NewVertex(1, 3, nil, nil, 0)); err != nil || d.PrunedTo() != 0 {
		t.Fatalf("a parentless vertex one round above the empty floor: err = %v, floor %d; want it in, floor 0", err, d.PrunedTo())
	}
	if err := d.Insert(dag.NewVertex(2, 3, nil, nil, 0)); !errors.Is(err, dag.ErrTooFewParents) {
		t.Fatalf("a parentless vertex two rounds above the empty floor: err = %v, want ErrTooFewParents", err)
	}
	d.Prune(5)
	for _, id := range []types.ValidatorID{0, 2} {
		if err := d.Insert(dag.NewVertex(5, id, nil, nil, 0)); err != nil {
			t.Fatalf("a parentless vertex at the floor: %v", err)
		}
	}
	for _, r := range []types.Round{6, 1000} {
		if err := d.Insert(dag.NewVertex(r, 1, nil, nil, 0)); !errors.Is(err, dag.ErrTooFewParents) {
			t.Fatalf("a parentless vertex at round %d over a held floor: err = %v, want ErrTooFewParents", r, err)
		}
	}
	if err := d.Insert(far); !errors.Is(err, dag.ErrTooFewParents) {
		t.Fatalf("the far round, now inside the bound: err = %v, want ErrTooFewParents", err)
	}
	if got, n := d.HighestRound(), d.VertexCount(); got != 5 || n != 2 {
		t.Fatalf("HighestRound = %d with %d vertices after refused inserts, want 5 and 2", got, n)
	}
	d.Prune(far.Round)
	if err := d.Insert(far); err != nil {
		t.Fatalf("the same round once the floor came up to it: %v", err)
	}
	if got, ok := d.Get(far.Round, 1); !ok || got != far || d.VertexCount() != 1 {
		t.Fatalf("Get = %v, %v with %d vertices; want the far vertex alone", got, ok, d.VertexCount())
	}
}

// TestInsertRejectsTooManyEdges: a vertex names at most one parent per
// committee member, so an edge list longer than the committee is refused
// before any edge is resolved — a repeated parent, or a flood of garbage that
// would otherwise each cost a scan of every retained vertex.
func TestInsertRejectsTooManyEdges(t *testing.T) {
	d := dag.New(newCommittee(t, 4))
	var genesis []types.Digest
	for id := range 4 {
		v := dag.NewVertex(0, types.ValidatorID(id), nil, nil, 0)
		if err := d.Insert(v); err != nil {
			t.Fatal(err)
		}
		genesis = append(genesis, v.Digest())
	}
	garbage := make([]types.Digest, 100000)
	for i := range garbage {
		garbage[i] = types.HashBytes([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
	for what, edges := range map[string][]types.Digest{
		"every parent, one twice":    append(slices.Clone(genesis), genesis[2]),
		"every parent, then garbage": append(slices.Clone(genesis), garbage[0]),
		"garbage only":               garbage,
	} {
		if err := d.Insert(dag.NewVertex(1, 0, edges, nil, 0)); !errors.Is(err, dag.ErrTooManyEdges) {
			t.Fatalf("%s (%d edges): err = %v, want ErrTooManyEdges", what, len(edges), err)
		}
	}
	if d.HighestRound() != 0 || d.VertexCount() != 4 {
		t.Fatalf("HighestRound = %d with %d vertices after refused inserts, want 0 and 4", d.HighestRound(), d.VertexCount())
	}
	if err := d.Insert(dag.NewVertex(1, 0, genesis, nil, 0)); err != nil {
		t.Fatalf("one edge per member: %v", err)
	}
}
