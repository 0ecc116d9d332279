package dag_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hammerhead/internal/dag"
	"hammerhead/internal/dag/dagtest"
	"hammerhead/internal/types"
)

// randomDAG grows a random but protocol-valid DAG from a seed.
func randomDAG(seed uint64) (*dagtest.Builder, *rand.Rand) {
	rng := rand.New(rand.NewSource(int64(seed))) //nolint:gosec // test determinism
	n := rng.Intn(8) + 4
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		panic(err)
	}
	b := dagtest.NewBuilder(committee)
	rounds := types.Round(rng.Intn(12) + 4)
	crashed := map[types.ValidatorID]bool{}
	if f := (n - 1) / 3; f > 0 && rng.Intn(2) == 0 {
		crashed[types.ValidatorID(rng.Intn(n))] = true
	}
	b.GrowRandom(rng, 1, rounds, crashed)
	return b, rng
}

func randomVertex(b *dagtest.Builder, rng *rand.Rand) *dag.Vertex {
	for {
		r := types.Round(rng.Intn(int(b.DAG.HighestRound()) + 1))
		vs := b.DAG.RoundVertices(r)
		if len(vs) > 0 {
			return vs[rng.Intn(len(vs))]
		}
	}
}

// TestPathRespectsRounds: a path never goes upward in rounds, and is
// reflexive exactly on identical vertices.
func TestPathRespectsRounds(t *testing.T) {
	property := func(seed uint64) bool {
		b, rng := randomDAG(seed)
		for i := 0; i < 20; i++ {
			v, u := randomVertex(b, rng), randomVertex(b, rng)
			has := b.DAG.Path(v, u)
			if has && v.Round < u.Round {
				return false
			}
			if v == u && !has {
				return false
			}
			if v.Round == u.Round && v != u && has {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPathTransitive: path(a,b) && path(b,c) => path(a,c).
func TestPathTransitive(t *testing.T) {
	property := func(seed uint64) bool {
		b, rng := randomDAG(seed)
		for i := 0; i < 15; i++ {
			a, bb, c := randomVertex(b, rng), randomVertex(b, rng), randomVertex(b, rng)
			if b.DAG.Path(a, bb) && b.DAG.Path(bb, c) && !b.DAG.Path(a, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPathAgreesWithEdges: a direct edge implies a path, and a one-round
// path implies a direct edge.
func TestPathAgreesWithEdges(t *testing.T) {
	property := func(seed uint64) bool {
		b, rng := randomDAG(seed)
		for i := 0; i < 20; i++ {
			v := randomVertex(b, rng)
			if v.Round == 0 {
				continue
			}
			for _, e := range v.Edges {
				parent, ok := b.DAG.ByDigest(e)
				if !ok || !b.DAG.Path(v, parent) {
					return false
				}
			}
			// One-round paths are exactly the edge set.
			for _, u := range b.DAG.RoundVertices(v.Round - 1) {
				if b.DAG.Path(v, u) != b.DAG.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCausalHistoryClosure: the causal history of v down to minRound is
// downward closed — every parent (>= minRound) of a member is a member —
// and every member is reachable from v.
func TestCausalHistoryClosure(t *testing.T) {
	property := func(seed uint64) bool {
		b, rng := randomDAG(seed)
		v := randomVertex(b, rng)
		minRound := types.Round(rng.Intn(int(v.Round) + 1))
		hist := b.DAG.CausalHistory(v, minRound, nil)
		inHist := make(map[types.Digest]bool, len(hist))
		for _, u := range hist {
			inHist[u.Digest()] = true
		}
		if !inHist[v.Digest()] {
			return false
		}
		for _, u := range hist {
			if u.Round < minRound {
				return false
			}
			if !b.DAG.Path(v, u) {
				return false
			}
			if u.Round > minRound {
				for _, e := range u.Edges {
					if parent, ok := b.DAG.ByDigest(e); ok && parent.Round >= minRound && !inHist[e] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ---- the digest walk, kept as the oracle ----
//
// refPath and refCausalHistory are the traversals the store ran before it
// moved to slots and bitsets: breadth-first over Vertex.Edges, each digest
// resolved through ByDigest, a visited map, and a final sort. They
// stay here as the reference the bitset sweeps must agree with.

func refPath(d *dag.DAG, v, u *dag.Vertex) bool {
	if v == nil || u == nil {
		return false
	}
	if v.Digest() == u.Digest() {
		return true
	}
	if v.Round <= u.Round {
		return false
	}
	target := u.Digest()
	visited := map[types.Digest]struct{}{v.Digest(): {}}
	frontier := []*dag.Vertex{v}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, w := range frontier {
			for _, e := range w.Edges {
				if e == target {
					return true
				}
				if _, seen := visited[e]; seen {
					continue
				}
				visited[e] = struct{}{}
				parent, ok := d.ByDigest(e)
				if !ok || parent.Round < u.Round {
					continue
				}
				next = append(next, parent)
			}
		}
		frontier = next
	}
	return false
}

func refCausalHistory(d *dag.DAG, v *dag.Vertex, minRound types.Round, skip func(*dag.Vertex) bool) []*dag.Vertex {
	if v == nil || v.Round < minRound || (skip != nil && skip(v)) {
		return nil
	}
	visited := map[types.Digest]struct{}{v.Digest(): {}}
	out := []*dag.Vertex{v}
	frontier := []*dag.Vertex{v}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, w := range frontier {
			for _, e := range w.Edges {
				if _, seen := visited[e]; seen {
					continue
				}
				visited[e] = struct{}{}
				parent, ok := d.ByDigest(e)
				if !ok || parent.Round < minRound {
					continue
				}
				if skip != nil && skip(parent) {
					continue
				}
				out = append(out, parent)
				next = append(next, parent)
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Source < out[j].Source
	})
	return out
}

func refHasEdge(v, u *dag.Vertex) bool {
	for _, e := range v.Edges {
		if e == u.Digest() {
			return true
		}
	}
	return false
}

// weightedCommittee gives validator i a stake in 1..5, so running stake
// totals are not just vertex counts.
func weightedCommittee(t *testing.T, n int, rng *rand.Rand) *types.Committee {
	t.Helper()
	authorities := make([]types.Authority, n)
	for i := range authorities {
		authorities[i] = types.Authority{ID: types.ValidatorID(i), Stake: types.Stake(1 + rng.Intn(5))}
	}
	c, err := types.NewCommittee(authorities)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// growMixed grows rounds 1..rounds: mostly GrowRandom's shuffled parent lists
// (edges out of source order), every third round all parents in source order
// (the shape a real header has). crashed sources never produce; the rest must
// hold a quorum of stake, or no vertex above round 1 is valid.
func growMixed(b *dagtest.Builder, rng *rand.Rand, rounds types.Round, crashed map[types.ValidatorID]bool) {
	var alive []types.ValidatorID
	for _, id := range b.Committee.ValidatorIDs() {
		if !crashed[id] {
			alive = append(alive, id)
		}
	}
	for r := types.Round(1); r <= rounds; r++ {
		if r%3 == 0 {
			b.AddFullRound(r, alive)
		} else {
			b.GrowRandom(rng, r, 1, crashed)
		}
	}
}

// sameVertices reports whether two histories hold the same vertices in the
// same order.
func sameVertices(a, b []*dag.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstDigestWalk compares every index-addressed query of d with the
// digest walk over the same DAG, on vertices d retains.
func checkAgainstDigestWalk(t *testing.T, label string, d *dag.DAG, b *dagtest.Builder, rng *rand.Rand) {
	t.Helper()
	floor, top := d.PrunedTo(), d.HighestRound()
	var retained []*dag.Vertex
	for r := floor; r <= top; r++ {
		vs := d.RoundVertices(r)
		var stake types.Stake
		for i, v := range vs {
			if b.Rounds[r][v.Source] != v {
				t.Fatalf("%s: round %d holds %v, which the builder never made", label, r, v)
			}
			if i > 0 && vs[i-1].Source >= v.Source {
				t.Fatalf("%s: RoundVertices(%d) not in source order", label, r)
			}
			stake += b.Committee.Stake(v.Source)
		}
		if len(vs) != len(b.Rounds[r]) {
			t.Fatalf("%s: round %d holds %d vertices, want %d", label, r, len(vs), len(b.Rounds[r]))
		}
		if got := d.RoundStake(r); got != stake {
			t.Fatalf("%s: RoundStake(%d) = %d, want %d", label, r, got, stake)
		}
		if got := d.HasQuorumAt(r); got != (stake >= b.Committee.QuorumThreshold()) {
			t.Fatalf("%s: HasQuorumAt(%d) = %v with stake %d", label, r, got, stake)
		}
		retained = append(retained, vs...)
	}
	pick := func() *dag.Vertex { return retained[rng.Intn(len(retained))] }
	for i := 0; i < 60; i++ {
		v := pick()
		// Targets a few rounds below v make true answers as common as false.
		u := pick()
		if i%2 == 0 && v.Round > floor {
			below := d.RoundVertices(v.Round - 1 - types.Round(rng.Intn(int(min(v.Round-floor, 3)))))
			u = below[rng.Intn(len(below))]
		}
		if got, want := d.Path(v, u), refPath(d, v, u); got != want {
			t.Fatalf("%s: Path(%v, %v) = %v, digest walk says %v", label, v, u, got, want)
		}
		if v.Round > floor {
			for _, p := range d.RoundVertices(v.Round - 1) {
				if got, want := d.HasEdge(v, p), refHasEdge(v, p); got != want {
					t.Fatalf("%s: HasEdge(%v, %v) = %v, edge list says %v", label, v, p, got, want)
				}
			}
		}
	}
	for i := 0; i < 25; i++ {
		v := pick()
		minRound := types.Round(rng.Intn(int(v.Round) + 1)) // may lie below the floor
		var skip func(*dag.Vertex) bool
		switch i % 3 {
		case 1: // an "already ordered" set, v itself included now and then
			mod := byte(2 + rng.Intn(4))
			skip = func(u *dag.Vertex) bool { return u.Digest()[1]%mod == 0 }
		case 2: // everything below some round: the sweep must stop early
			cut := types.Round(rng.Intn(int(v.Round) + 1))
			skip = func(u *dag.Vertex) bool { return u.Round < cut }
		}
		got, want := d.CausalHistory(v, minRound, skip), refCausalHistory(d, v, minRound, skip)
		if !sameVertices(got, want) {
			t.Fatalf("%s: CausalHistory(%v, min %d, skip case %d) = %d vertices %v, digest walk gives %d %v",
				label, v, minRound, i%3, len(got), got, len(want), want)
		}
	}
}

// TestTraversalsMatchDigestWalk: on seeded random DAGs — crashed sources,
// weighted stake, committee sizes on both sides of the 64-bit word boundary
// — Path, HasEdge, CausalHistory, RoundVertices and RoundStake agree with the
// digest walk: on the DAG the builder grew, on a second DAG fed the same
// *Vertex values (each twice, in another order), on a DAG whose floor was
// pruned before anything was inserted (the snapshot-install shape: the first
// round re-enters without parents), and on one pruned after the fact (parent
// sets that point below the floor).
func TestTraversalsMatchDigestWalk(t *testing.T) {
	for _, n := range []int{1, 4, 50, 64, 65, 130} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n))) //nolint:gosec // test determinism
			committee := newCommittee(t, n)
			if seed%2 == 0 {
				committee = weightedCommittee(t, n, rng)
			}
			crashed := map[types.ValidatorID]bool{}
			alive := committee.TotalStake()
			for i := 0; i < (n-1)/3; i++ {
				// Up to f of n crash, but in a weighted committee a crash that
				// left less than a quorum of stake alive would leave nobody a
				// valid vertex to make.
				id := types.ValidatorID(rng.Intn(n))
				if !crashed[id] && alive-committee.Stake(id) >= committee.QuorumThreshold() {
					crashed[id] = true
					alive -= committee.Stake(id)
				}
			}
			rounds := types.Round(9)
			if n <= 4 {
				rounds = 20
			}
			b := dagtest.NewBuilder(committee)
			growMixed(b, rng, rounds, crashed)
			label := func(what string) string { return fmt.Sprintf("n=%d seed=%d %s", n, seed, what) }
			checkAgainstDigestWalk(t, label("builder"), b.DAG, b, rng)

			// The same *Vertex values in a second DAG: rounds ascending
			// (parents first), sources descending, every vertex twice.
			mirror := dag.New(committee)
			cut := 1 + types.Round(rng.Intn(int(rounds)-1))
			floored := dag.New(committee)
			floored.Prune(cut)
			for r := types.Round(0); r <= rounds; r++ {
				vs := b.DAG.RoundVertices(r)
				for i := len(vs) - 1; i >= 0; i-- {
					for range 2 {
						if err := mirror.Insert(vs[i]); err != nil {
							t.Fatalf("%s: %v", label("mirror insert"), err)
						}
					}
					err := floored.Insert(vs[i])
					if r < cut && !errors.Is(err, dag.ErrPruned) {
						t.Fatalf("%s: insert below the floor: err = %v, want ErrPruned", label("floored"), err)
					}
					if r >= cut && err != nil {
						t.Fatalf("%s: %v", label("floored insert"), err)
					}
				}
			}
			checkAgainstDigestWalk(t, label("mirror"), mirror, b, rng)
			checkAgainstDigestWalk(t, label("floored"), floored, b, rng)
			mirror.Prune(cut)
			checkAgainstDigestWalk(t, label("mirror pruned"), mirror, b, rng)
			// The builder's own DAG saw none of that.
			checkAgainstDigestWalk(t, label("builder again"), b.DAG, b, rng)
		}
	}
}

// TestVerticesTheDAGDoesNotHold: traversals answer for the DAG's own
// vertices. One that was never inserted here, or whose slot holds a different
// vertex, reaches nothing — even when its edges name vertices that are here.
func TestVerticesTheDAGDoesNotHold(t *testing.T) {
	c := newCommittee(t, 4)
	b := dagtest.NewBuilder(c)
	b.AddFullRound(1, nil)
	b.AddFullRound(2, []types.ValidatorID{0, 1, 2})
	b.AddFullRound(3, nil)
	parent := b.Vertex(1, 0)
	absent := dag.NewVertex(2, 3, []types.Digest{parent.Digest()}, nil, 0)   // slot empty
	conflict := dag.NewVertex(2, 0, []types.Digest{parent.Digest()}, nil, 0) // slot taken by another
	for _, v := range []*dag.Vertex{absent, conflict} {
		if b.DAG.Path(v, parent) || b.DAG.HasEdge(v, parent) || b.DAG.CausalHistory(v, 0, nil) != nil {
			t.Fatalf("%v is not in the DAG, yet a traversal from it found something", v)
		}
		if b.DAG.Path(b.Vertex(3, 1), v) || b.DAG.HasEdge(b.Vertex(3, 1), v) {
			t.Fatalf("path to %v, which is not in the DAG", v)
		}
		if !b.DAG.Path(v, v) {
			t.Fatal("a vertex reaches itself wherever it lives")
		}
	}
	if err := b.DAG.Insert(dag.NewVertex(2, 7, nil, nil, 0)); !errors.Is(err, dag.ErrUnknownSource) {
		t.Fatalf("source outside the committee: err = %v, want ErrUnknownSource", err)
	}
	var missing *dag.MissingParentsError
	ghosts := []types.Digest{types.HashBytes([]byte("a")), parent.Digest(), types.HashBytes([]byte("b"))}
	if err := b.DAG.Insert(dag.NewVertex(2, 3, ghosts, nil, 0)); !errors.As(err, &missing) ||
		len(missing.Missing) != 2 || missing.Missing[0] != ghosts[0] || missing.Missing[1] != ghosts[2] {
		t.Fatalf("err = %v, want a MissingParentsError naming exactly the two absent parents", err)
	}
}

// TestTraverseWhileInserting runs one inserter and one traverser on the same
// DAG — the engine's ingest and order stages — and is meaningful under -race.
// A vertex enters the DAG after its whole history, so what the traverser sees
// from any vertex it got from the DAG is final and must match the digest walk
// whatever the inserter is doing.
func TestTraverseWhileInserting(t *testing.T) {
	const n, rounds = 50, 12
	rng := rand.New(rand.NewSource(7)) //nolint:gosec // test determinism
	c := newCommittee(t, n)
	b := dagtest.NewBuilder(c)
	growMixed(b, rng, rounds, map[types.ValidatorID]bool{3: true, 17: true})

	d := dag.New(c)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := types.Round(0); r <= rounds; r++ {
			for _, v := range b.DAG.RoundVertices(r) {
				if err := d.Insert(v); err != nil {
					t.Errorf("insert %v: %v", v, err)
					return
				}
			}
		}
	}()
	traverse := func() {
		top := d.HighestRound()
		vs := d.RoundVertices(top)
		if len(vs) == 0 {
			return // nothing inserted yet
		}
		v := vs[rng.Intn(len(vs))]
		minRound := types.Round(rng.Intn(int(top) + 1))
		if got, want := d.CausalHistory(v, minRound, nil), refCausalHistory(d, v, minRound, nil); !sameVertices(got, want) {
			t.Fatalf("CausalHistory(%v, %d) diverged from the digest walk mid-insert", v, minRound)
		}
		if below := d.RoundVertices(minRound); len(below) > 0 {
			u := below[rng.Intn(len(below))]
			if got, want := d.Path(v, u), refPath(d, v, u); got != want {
				t.Fatalf("Path(%v, %v) = %v, digest walk says %v", v, u, got, want)
			}
		}
		d.HasQuorumAt(top)
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		traverse()
	}
	if got, want := d.VertexCount(), b.DAG.VertexCount(); got != want {
		t.Fatalf("inserted %d vertices, want %d", got, want)
	}
}
