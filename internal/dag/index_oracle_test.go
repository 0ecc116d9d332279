package dag_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hammerhead/internal/dag"
	"hammerhead/internal/types"
)

// ---- the digest index, kept as the oracle ----
//
// indexModel is the store the way Insert, the digest lookup, Prune and
// VertexCount ran while the DAG kept a digest→vertex map beside its slots: every edge resolved
// through the map, pruning deleted the map entries of the dropped rounds, the
// count was the map's length. It has the rules the scan brought with it and
// nothing else new: at most n edges; a misplaced edge refusing the vertex at
// once; and a quorum of parents above the floor, except one round above an
// empty floor round. TestDigestLookupsMatchIndexModel holds the tag scans to it.
type indexModel struct {
	committee *types.Committee
	floor     types.Round
	highest   types.Round
	byDigest  map[types.Digest]*dag.Vertex
	slots     map[slotKey]*dag.Vertex
	// starts counts vertices let in short of a quorum over an empty floor.
	starts int
}

type slotKey struct {
	round  types.Round
	source types.ValidatorID
}

func newIndexModel(c *types.Committee) *indexModel {
	return &indexModel{committee: c, byDigest: map[types.Digest]*dag.Vertex{}, slots: map[slotKey]*dag.Vertex{}}
}

func (m *indexModel) insert(v *dag.Vertex) error {
	switch {
	case v.Round < m.floor:
		return dag.ErrPruned
	case v.Round-m.floor >= dag.MaxRetainedRounds:
		return dag.ErrRoundTooFar
	case int(v.Source) >= m.committee.Size():
		return dag.ErrUnknownSource
	case len(v.Edges) > m.committee.Size():
		return dag.ErrTooManyEdges
	}
	key := slotKey{v.Round, v.Source}
	if held, ok := m.slots[key]; ok {
		if held.Digest() == v.Digest() {
			return nil
		}
		return dag.ErrSlotOccupied
	}
	if v.Round > m.floor {
		var missing []types.Digest
		parents := types.NewStakeAccumulator(m.committee)
		for _, e := range v.Edges {
			parent, ok := m.byDigest[e]
			switch {
			case !ok:
				missing = append(missing, e)
			case parent.Round != v.Round-1:
				return dag.ErrBadEdgeRound
			default:
				parents.Add(parent.Source)
			}
		}
		emptyFloor := v.Round-1 == m.floor && len(m.roundVertices(m.floor)) == 0
		switch {
		case len(missing) > 0:
			return &dag.MissingParentsError{Vertex: v, Missing: missing}
		case !parents.ReachedQuorum() && !emptyFloor:
			return dag.ErrTooFewParents
		case !parents.ReachedQuorum():
			m.starts++
		}
	}
	m.byDigest[v.Digest()] = v
	m.slots[key] = v
	m.highest = max(m.highest, v.Round)
	return nil
}

func (m *indexModel) prune(floor types.Round) {
	if floor <= m.floor {
		return
	}
	m.floor = floor
	for d, v := range m.byDigest {
		if v.Round < floor {
			delete(m.byDigest, d)
			delete(m.slots, slotKey{v.Round, v.Source})
		}
	}
}

// roundVertices lists the model's vertices of a round in source order.
func (m *indexModel) roundVertices(r types.Round) []*dag.Vertex {
	var out []*dag.Vertex
	for id := range m.committee.Size() {
		if v, ok := m.slots[slotKey{r, types.ValidatorID(id)}]; ok {
			out = append(out, v)
		}
	}
	return out
}

var insertSentinels = []error{
	dag.ErrMissingParents, dag.ErrSlotOccupied, dag.ErrBadEdgeRound, dag.ErrPruned,
	dag.ErrUnknownSource, dag.ErrRoundTooFar, dag.ErrTooFewParents, dag.ErrTooManyEdges,
}

// sameInsertError compares two Insert results by class: every sentinel
// through errors.Is, and for missing parents the list itself.
func sameInsertError(got, want error) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("err = %v, model %v", got, want)
	}
	for _, s := range insertSentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			return fmt.Errorf("err = %v, model %v (they differ on %v)", got, want, s)
		}
	}
	var g, w *dag.MissingParentsError
	if errors.As(want, &w) && (!errors.As(got, &g) || !slices.Equal(g.Missing, w.Missing)) {
		return fmt.Errorf("err = %v, model misses %d parents %v", got, len(w.Missing), w.Missing)
	}
	return nil
}

// oracleRun drives one DAG beside the model through a seeded sequence of
// inserts, prunes and lookups.
type oracleRun struct {
	t     *testing.T
	rng   *rand.Rand
	c     *types.Committee
	d     *dag.DAG
	m     *indexModel
	label string
	step  int
	tx    uint64
	// made is every vertex ever offered, whether it went in, was refused or
	// has been pruned since: lookups probe all of them.
	made []*dag.Vertex
	// later holds valid vertices not offered yet (children of them miss a
	// parent) and vertices refused for missing parents, to be offered again.
	later []*dag.Vertex
	// outcomes counts Insert results by class: nil or the sentinel matched.
	outcomes map[error]int
}

// outcome is the class of an Insert result: nil or the sentinel it matches.
func outcome(err error) error {
	for _, s := range insertSentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

func (o *oracleRun) vertex(round types.Round, source types.ValidatorID, edges []types.Digest) *dag.Vertex {
	o.tx++
	v := dag.NewVertex(round, source, edges, &types.Batch{Transactions: []types.Transaction{{ID: o.tx}}}, 0)
	o.made = append(o.made, v)
	return v
}

// quorumEdges picks parents for a vertex at round r from the model's round
// r-1: a shuffled prefix reaching a quorum of stake (everything, if the round
// holds less), in source order half the time, the shape a real header has.
func (o *oracleRun) quorumEdges(r types.Round) []types.Digest {
	if r == 0 {
		return nil
	}
	parents := o.m.roundVertices(r - 1)
	o.rng.Shuffle(len(parents), func(i, j int) { parents[i], parents[j] = parents[j], parents[i] })
	acc := types.NewStakeAccumulator(o.c)
	k := 0
	for k < len(parents) && !acc.ReachedQuorum() {
		acc.Add(parents[k].Source)
		k++
	}
	parents = parents[:k]
	if o.rng.Intn(2) == 0 {
		slices.SortFunc(parents, func(a, b *dag.Vertex) int { return int(a.Source) - int(b.Source) })
	}
	edges := make([]types.Digest, len(parents))
	for i, p := range parents {
		edges[i] = p.Digest()
	}
	return edges
}

// belowQuorum drops parents from a quorum-reaching edge list until what is
// left carries less than a quorum.
func (o *oracleRun) belowQuorum(edges []types.Digest) []types.Digest {
	for len(edges) > 0 {
		acc := types.NewStakeAccumulator(o.c)
		for _, e := range edges {
			acc.Add(o.m.byDigest[e].Source)
		}
		if !acc.ReachedQuorum() {
			break
		}
		i := o.rng.Intn(len(edges))
		edges = slices.Delete(edges, i, i+1)
	}
	return edges
}

// withEdge adds the edge to the list, in place of a random one when the list
// already names as many parents as the committee has members.
func (o *oracleRun) withEdge(edges []types.Digest, e types.Digest) []types.Digest {
	if len(edges) < o.c.Size() {
		return append(edges, e)
	}
	edges[o.rng.Intn(len(edges))] = e
	return edges
}

// freeSource returns a source whose slot at round r the model has empty.
func (o *oracleRun) freeSource(r types.Round) (types.ValidatorID, bool) {
	n := o.c.Size()
	start := o.rng.Intn(n)
	for k := range n {
		id := types.ValidatorID((start + k) % n)
		if _, ok := o.m.slots[slotKey{r, id}]; !ok {
			return id, true
		}
	}
	return 0, false
}

// liveRound picks the round to work at: mostly the lowest one short of a
// quorum, where a growing DAG's next vertices go; now and then anywhere in the
// window or just above it.
func (o *oracleRun) liveRound() types.Round {
	top := max(o.m.highest, o.m.floor)
	switch o.rng.Intn(8) {
	case 0:
		return o.m.floor + types.Round(o.rng.Intn(int(top-o.m.floor)+1))
	case 1:
		return top + 1
	}
	r := o.m.floor
	for ; r <= top; r++ {
		acc := types.NewStakeAccumulator(o.c)
		for _, v := range o.m.roundVertices(r) {
			acc.Add(v.Source)
		}
		if !acc.ReachedQuorum() {
			break
		}
	}
	return r
}

func (o *oracleRun) insert(v *dag.Vertex) {
	o.t.Helper()
	got, want := o.d.Insert(v), o.m.insert(v)
	if err := sameInsertError(got, want); err != nil {
		o.t.Fatalf("%s step %d: Insert(%v): %v", o.label, o.step, v, err)
	}
	o.outcomes[outcome(want)]++
	if errors.Is(want, dag.ErrMissingParents) && len(o.later) < 64 {
		o.later = append(o.later, v)
	}
}

// op runs one seeded operation.
func (o *oracleRun) op() {
	n := o.c.Size()
	r := o.liveRound()
	src, free := o.freeSource(r)
	switch k := o.rng.Intn(100); {
	case k < 35 && free: // a valid vertex, edges in or out of source order
		o.insert(o.vertex(r, src, o.quorumEdges(r)))
	case k < 43 && free: // kept back: a child of it misses it
		held := o.vertex(r, src, o.quorumEdges(r))
		o.later = append(o.later, held)
		if child, ok := o.freeSource(r + 1); ok {
			edges := append(o.quorumEdges(r+1), held.Digest())
			o.rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			o.insert(o.vertex(r+1, child, edges))
		}
	case k < 53 && len(o.later) > 0: // offered again, or for the first time
		i := o.rng.Intn(len(o.later))
		v := o.later[i]
		o.later = slices.Delete(o.later, i, i+1)
		o.insert(v)
	case k < 56 && free: // a parent nobody ever made
		edges := o.withEdge(o.quorumEdges(r), types.HashBytes([]byte(fmt.Sprintf("ghost %d", o.step))))
		o.insert(o.vertex(r, src, edges))
	case k < 61 && free && r >= 1: // a parent two rounds back, in the same round, or above
		var others []*dag.Vertex
		for _, q := range []types.Round{r - min(r, 2), r, r + 1} {
			others = append(others, o.m.roundVertices(q)...)
		}
		edges := o.quorumEdges(r)
		if len(others) > 0 {
			edges = o.withEdge(edges, others[o.rng.Intn(len(others))].Digest())
		}
		o.insert(o.vertex(r, src, edges))
	case k < 66: // a duplicate: retained, pruned or refused before
		o.insert(o.made[o.rng.Intn(len(o.made))])
	case k < 70: // another vertex for an occupied slot
		if held := o.m.roundVertices(r); len(held) > 0 {
			v := held[o.rng.Intn(len(held))]
			o.insert(o.vertex(v.Round, v.Source, v.Edges))
		}
	case k < 76 && free: // parents worth less than a quorum, or none
		edges := o.belowQuorum(o.quorumEdges(r))
		if o.rng.Intn(3) == 0 {
			edges = nil
		}
		o.insert(o.vertex(r, src, edges))
	case k < 78: // at the floor: its parents are gone, anything goes
		if id, ok := o.freeSource(o.m.floor); ok {
			o.insert(o.vertex(o.m.floor, id, []types.Digest{types.HashBytes([]byte("below"))}))
		}
	case k < 80: // far above the floor: inside the bound and past it
		far := o.m.floor + 1000
		if o.rng.Intn(2) == 0 {
			far = o.m.floor + dag.MaxRetainedRounds + types.Round(o.rng.Intn(2)) - 1
		}
		o.insert(o.vertex(far, types.ValidatorID(o.rng.Intn(n)), o.quorumEdges(far)))
	case k < 82: // outside the committee
		o.insert(o.vertex(r, types.ValidatorID(n+o.rng.Intn(3)), o.quorumEdges(r)))
	case k < 88: // prune: keep a few rounds, go backwards, or pass everything
		floor := max(o.m.floor, o.m.highest-min(o.m.highest, types.Round(4+o.rng.Intn(4))))
		way := o.rng.Intn(16)
		switch way {
		case 0, 1:
			floor = o.m.floor / 2
		case 2:
			floor = o.m.highest + 2
		}
		o.d.Prune(floor)
		o.m.prune(floor)
		if way == 2 { // a parentless vertex one round above the emptied floor
			o.insert(o.vertex(o.m.floor+1, types.ValidatorID(o.rng.Intn(n)), nil))
		}
	case k < 90 && free: // more edges than the committee has members
		edges := o.quorumEdges(r)
		for len(edges) <= n {
			edges = append(edges, types.HashBytes([]byte(fmt.Sprintf("extra %d %d", o.step, len(edges)))))
		}
		o.insert(o.vertex(r, src, edges))
	}
}

// check compares everything the DAG answers with the model: VertexCount,
// PrunedTo and HighestRound; Get over the window and past both ends; Lookup
// of vertices retained, pruned, refused and never offered, and of garbage —
// a sample per step, all of them every full steps.
func (o *oracleRun) check(full bool) {
	o.t.Helper()
	d, m := o.d, o.m
	if got, want := d.VertexCount(), len(m.byDigest); got != want {
		o.t.Fatalf("%s step %d: VertexCount = %d, model %d", o.label, o.step, got, want)
	}
	if d.PrunedTo() != m.floor || d.HighestRound() != m.highest {
		o.t.Fatalf("%s step %d: rounds [%d, %d], model [%d, %d]", o.label, o.step, d.PrunedTo(), d.HighestRound(), m.floor, m.highest)
	}
	for r := m.floor - min(m.floor, 2); r <= max(m.highest, m.floor)+2; r++ {
		for id := range o.c.Size() + 2 {
			src := types.ValidatorID(id)
			got, ok := d.Get(r, src)
			want, wok := m.slots[slotKey{r, src}]
			if ok != wok || got != want {
				o.t.Fatalf("%s step %d: Get(%d, %s) = %v, %v; model %v, %v", o.label, o.step, r, src, got, ok, want, wok)
			}
		}
	}
	probe := func(digest types.Digest) {
		got, ok := d.Lookup(digest)
		want, wok := m.byDigest[digest]
		if ok != wok || got != want {
			o.t.Fatalf("%s step %d: Lookup(%s) = %v, %v; model %v, %v", o.label, o.step, digest, got, ok, want, wok)
		}
	}
	var garbage types.Digest
	o.rng.Read(garbage[:])
	probe(garbage)
	probe(types.ZeroDigest)
	if full {
		for _, v := range o.made {
			probe(v.Digest())
		}
		return
	}
	for range 16 {
		probe(o.made[o.rng.Intn(len(o.made))].Digest())
	}
	if len(o.made) > 0 {
		probe(o.made[len(o.made)-1].Digest())
	}
}

// TestDigestLookupsMatchIndexModel: with the digest index gone, Lookup,
// Insert's parent resolution and VertexCount scan the slots' digest tags.
// Over seeded operation sequences at n ∈ {1, 4, 50}, equal and weighted
// stake — inserts in and out of source order, children before their parents,
// ghost and misplaced parents, duplicates, slot conflicts, parents worth less
// than a quorum or none, more edges than members, far rounds, strangers,
// prunes every way — every
// Insert fails exactly as the index did (each sentinel, and the missing list)
// and every lookup answers as it did, after every step.
func TestDigestLookupsMatchIndexModel(t *testing.T) {
	for _, n := range []int{1, 4, 50} {
		for _, weighted := range []bool{false, true} {
			label := fmt.Sprintf("n=%d weighted=%v", n, weighted)
			rng := rand.New(rand.NewSource(int64(25*n) + 1)) //nolint:gosec // test determinism
			c := newCommittee(t, n)
			if weighted {
				c = weightedCommittee(t, n, rng)
			}
			o := &oracleRun{t: t, rng: rng, c: c, d: dag.New(c), m: newIndexModel(c), label: label, outcomes: map[error]int{}}
			// Equal stake starts from a genesis round 0; weighted from parentless
			// vertices at a later round the DAG is pruned to first, after two
			// that the pristine DAG must refuse.
			start := types.Round(0)
			if weighted {
				start = types.Round(1 + rng.Intn(5))
				o.insert(o.vertex(start+1, 0, nil))
				o.insert(o.vertex(dag.MaxRetainedRounds+start, 0, nil))
				o.d.Prune(start)
				o.m.prune(start)
			}
			for id := range n {
				o.insert(o.vertex(start, types.ValidatorID(id), nil))
			}
			steps := 1500
			if n == 50 {
				steps = 3000
			}
			for o.step = 1; o.step <= steps; o.step++ {
				o.op()
				o.check(o.step%100 == 0)
			}
			// Every way Insert can end must have come up, and the window slid.
			for _, class := range append([]error{nil}, insertSentinels...) {
				if o.outcomes[class] == 0 {
					t.Fatalf("%s: no Insert ended in %v; outcomes %v", label, class, o.outcomes)
				}
			}
			if o.m.starts == 0 {
				t.Fatalf("%s: no vertex went in short of a quorum over an empty floor round", label)
			}
			if o.m.floor < 20 {
				t.Fatalf("%s: the floor only reached round %d", label, o.m.floor)
			}
		}
	}
}
