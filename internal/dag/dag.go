// Package dag implements the round-structured vertex store shared by the
// Bullshark committer and the HammerHead scheduler.
//
// A vertex corresponds to a certified block (a Narwhal certificate): one per
// (round, source), carrying edges to at least a quorum of vertices in the
// previous round. Edges always point one round back, so every path in the
// DAG strictly decreases in round — path queries are therefore bounded
// downward traversals over the causal history of the start vertex.
//
// # Storage: slots and bitsets, not digests
//
// On the wire, in the WAL and in snapshots a vertex names its parents by
// digest. Inside the store it does not: the retained rounds sit in a window
// indexed by round minus the pruned floor (types.RoundWindow), a round is a
// dense array of slots indexed by validator ID, with the set of occupied
// slots and their running stake beside it, and each slot keeps its vertex's
// parents as a bitset (types.ValidatorSet) over the previous round's sources.
// There is no digest index: a slot keeps its digest's leading 8 bytes as a
// tag, and a digest resolves by a scan of the tags, newest round first — a
// compare per retained vertex on a miss. The retained rounds are contiguous:
// above the pruned floor Insert requires parents worth a quorum. A vertex
// names at most one parent per committee member, so resolving its edges costs
// at most n scans.
//
// Insert is the single point where digests are resolved — one pass over the
// edges, which also makes every check on them (present, exactly one round
// back, a quorum of them) — and everything after it is index arithmetic: Get
// is two array steps, RoundStake and HasQuorumAt read the running total,
// HasEdge tests one bit, and Path and CausalHistory sweep round by round,
// OR-ing the parent sets of the sources reached so far into the set reached
// one round down. A sweep visits sources in ascending order within a round, so
// CausalHistory yields its (round, source) order without sorting, and it
// needs no visited set: a bit is either already set or not.
//
// The parent bitset lives in the DAG's slot, not on the Vertex: a Vertex is
// an immutable value that tests (and the simulator) share between several
// DAGs, and each DAG resolves it against its own contents. Vertex.Edges stays
// the digest list the certificate carried — shared with the header, never
// copied — because that is what the digest, the wire and the WAL commit to.
//
// Traversals take vertices the DAG holds (the occupant of their slot, by
// digest): Path and HasEdge report false, and CausalHistory nil, for a vertex
// that was never inserted here or has been pruned.
package dag

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hammerhead/internal/types"
)

// Vertex is a node of the DAG. Vertices are immutable once inserted.
type Vertex struct {
	// Round is the DAG round of the vertex.
	Round types.Round
	// Source is the validator that produced the vertex.
	Source types.ValidatorID
	// Edges are digests of vertices in Round-1 (empty only at round 0).
	// They represent the "votes" of Source for the previous round, and in
	// particular the parent link to the previous round's leader is what
	// HammerHead's reputation scoring counts.
	Edges []types.Digest
	// BatchDigest commits to the transaction payload carried by the vertex.
	BatchDigest types.Digest
	// Batch is the payload. It may be nil for vertices whose payload was
	// fetched lazily or pruned; the committer only needs it at delivery.
	Batch *types.Batch
	// CreatedNanos is the producer's clock when the vertex was proposed.
	// Used for observability only — never for protocol decisions.
	CreatedNanos int64

	digest types.Digest
}

// ComputeDigest derives the content address of a vertex from its immutable
// identity fields (round, source, edges, payload digest).
//
//hammerlint:deterministic
func ComputeDigest(round types.Round, source types.ValidatorID, edges []types.Digest, batchDigest types.Digest) types.Digest {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(round))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(source))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(edges)))
	parts := make([][]byte, 0, 2+len(edges))
	parts = append(parts, hdr[:])
	for i := range edges {
		parts = append(parts, edges[i][:])
	}
	parts = append(parts, batchDigest[:])
	return types.HashBytes(parts...)
}

// NewVertex builds a vertex and seals its digest.
func NewVertex(round types.Round, source types.ValidatorID, edges []types.Digest, batch *types.Batch, createdNanos int64) *Vertex {
	var batchDigest types.Digest
	if batch != nil && len(batch.Transactions) > 0 {
		// Commit to transaction IDs; payload bytes are committed by the
		// mempool layer when real payload dissemination is in use.
		buf := make([]byte, 8*len(batch.Transactions))
		for i := range batch.Transactions {
			binary.BigEndian.PutUint64(buf[i*8:], batch.Transactions[i].ID)
		}
		batchDigest = types.HashBytes(buf)
	}
	v := &Vertex{
		Round:        round,
		Source:       source,
		Edges:        append([]types.Digest(nil), edges...),
		BatchDigest:  batchDigest,
		Batch:        batch,
		CreatedNanos: createdNanos,
	}
	v.digest = ComputeDigest(v.Round, v.Source, v.Edges, v.BatchDigest)
	return v
}

// NewVertexPrecomputed builds a vertex from digests the caller already
// holds (the certificate pipeline computes them once per header and reuses
// them at every hop). The caller is responsible for digest consistency;
// protocol code derives both values from the same header. The vertex shares
// edges with the caller, which must not modify the slice afterwards (a signed
// header never changes).
func NewVertexPrecomputed(round types.Round, source types.ValidatorID, edges []types.Digest, batch *types.Batch, createdNanos int64, batchDigest, digest types.Digest) *Vertex {
	return &Vertex{
		Round:        round,
		Source:       source,
		Edges:        edges,
		BatchDigest:  batchDigest,
		Batch:        batch,
		CreatedNanos: createdNanos,
		digest:       digest,
	}
}

// Digest returns the vertex's content address.
func (v *Vertex) Digest() types.Digest { return v.digest }

// String implements fmt.Stringer.
func (v *Vertex) String() string {
	return fmt.Sprintf("vertex{r=%d src=%s %s}", v.Round, v.Source, v.digest)
}

// Errors returned by DAG operations.
var (
	ErrMissingParents = errors.New("dag: vertex references parents not in the DAG")
	ErrSlotOccupied   = errors.New("dag: a different vertex already occupies this (round, source) slot")
	ErrBadEdgeRound   = errors.New("dag: edges must reference vertices exactly one round back")
	ErrPruned         = errors.New("dag: round already pruned")
	ErrUnknownSource  = errors.New("dag: vertex source is not a committee member")
	ErrRoundTooFar    = errors.New("dag: round too far above the pruned floor")
	ErrTooFewParents  = errors.New("dag: vertex parents carry less than a quorum of stake")
	ErrTooManyEdges   = errors.New("dag: vertex lists more edges than the committee has members")
)

// MaxRetainedRounds bounds how far above the pruned floor a vertex may sit,
// and so — rounds fill contiguously — how many rounds the DAG retains (half a
// day of 50 ms rounds). The engine bounds the rounds it votes at with it too.
const MaxRetainedRounds = 1 << 20

// MissingParentsError is Insert's failure for a vertex some of whose parents
// the DAG does not hold yet. It lists all of them, so the caller can buffer
// the vertex and fetch exactly those; errors.Is(err, ErrMissingParents) holds.
type MissingParentsError struct {
	Vertex  *Vertex
	Missing []types.Digest
}

func (e *MissingParentsError) Error() string {
	return fmt.Sprintf("%v: %s misses %d parents, first %s", ErrMissingParents, e.Vertex, len(e.Missing), e.Missing[0])
}

// Is makes the error match ErrMissingParents.
func (e *MissingParentsError) Is(target error) bool { return target == ErrMissingParents }

// roundSlots is one round of the DAG: a slot per committee member.
type roundSlots struct {
	// vertices[id] is the vertex of validator id, nil while the slot is empty;
	// tags[id] is the leading 8 bytes of its digest, scanned by lookups.
	vertices []*Vertex
	tags     []uint64
	// parents holds one ValidatorSet per slot, back to back: slot id's
	// vertex links to the previous round's sources in parentsOf(id). Empty
	// for a vertex inserted at the pruned floor (its parents are gone).
	parents []uint64
	// present is the set of occupied slots and stake their running total.
	present types.ValidatorSet
	stake   types.Stake
}

// DAG is the local store of one validator. The engine goroutine inserts,
// traverses (the Bullshark committer) and prunes; the lock is for readers off
// that goroutine, such as the gateway's /v1/status, which reads HighestRound
// from an HTTP handler, so the DAG is safe for concurrent use. Vertices are
// immutable once inserted, so the lock only guards the indexes — traversals
// hold the read lock for their duration, and insertion/pruning take the
// write lock.
type DAG struct {
	mu        sync.RWMutex
	committee *types.Committee
	words     int // length of a ValidatorSet over the committee
	// rounds holds the retained rounds, nil where no vertex arrived yet; its
	// floor is the pruned floor: all rounds below it were dropped.
	rounds types.RoundWindow[*roundSlots]
	// resolved is Insert's scratch parent set (it holds the write lock).
	resolved *types.StakeAccumulator
	highest  types.Round
}

// New creates an empty DAG for the committee.
func New(committee *types.Committee) *DAG {
	return &DAG{
		committee: committee,
		words:     types.ValidatorSetWords(committee.Size()),
		resolved:  types.NewStakeAccumulator(committee),
	}
}

// Committee returns the committee the DAG was built for.
func (d *DAG) Committee() *types.Committee { return d.committee }

// HighestRound returns the highest round containing at least one vertex.
func (d *DAG) HighestRound() types.Round {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.highest
}

func (rs *roundSlots) parentsOf(id types.ValidatorID, words int) types.ValidatorSet {
	return rs.parents[int(id)*words : (int(id)+1)*words]
}

func digestTag(d types.Digest) uint64 { return binary.LittleEndian.Uint64(d[:8]) }

// find returns the slot at or after from whose vertex has the digest, or -1.
// A nil round (nothing inserted there yet) holds nothing.
func (rs *roundSlots) find(digest types.Digest, from int) int {
	if rs == nil {
		return -1
	}
	tag := digestTag(digest)
	for i := from; i < len(rs.tags); i++ {
		if rs.tags[i] == tag && rs.vertices[i] != nil && rs.vertices[i].digest == digest {
			return i
		}
	}
	return -1
}

// lookup returns the retained vertex with the digest, newest round first.
func (d *DAG) lookup(digest types.Digest) *Vertex {
	for r := d.rounds.End(); r > d.rounds.Floor(); r-- {
		rs := d.rounds.At(r - 1)
		if i := rs.find(digest, 0); i >= 0 {
			return rs.vertices[i]
		}
	}
	return nil
}

// at returns the occupant of the (round, source) slot, nil when empty.
func (d *DAG) at(round types.Round, source types.ValidatorID) *Vertex {
	rs := d.rounds.At(round)
	if rs == nil || int(source) >= len(rs.vertices) {
		return nil
	}
	return rs.vertices[source]
}

// holds reports whether v is the occupant of its slot.
func (d *DAG) holds(v *Vertex) bool {
	got := d.at(v.Round, v.Source)
	return got == v || (got != nil && got.digest == v.digest)
}

// Insert adds a vertex. All parents must already be present (callers buffer
// out-of-order arrivals; see the engine's pending slots): a vertex with absent
// parents fails with a *MissingParentsError naming every one of them.
// Inserting the same vertex twice is a no-op; inserting a *different* vertex
// into an occupied (round, source) slot fails, which in the crash-fault model
// can only arise from corruption. A vertex lists at most one edge per
// committee member (ErrTooManyEdges), and above the pruned floor its parents
// must be worth a quorum of stake (ErrTooFewParents), as every honest
// header's are — except one round above an empty floor round, where a DAG fed
// without a genesis round starts. Parents below the floor are not checked —
// they cannot be, and a vertex at the floor links to nothing the DAG will ever
// traverse.
func (d *DAG) Insert(v *Vertex) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	floor := d.rounds.Floor()
	if v.Round < floor {
		return fmt.Errorf("%w: round %d < pruned floor %d", ErrPruned, v.Round, floor)
	}
	if v.Round-floor >= MaxRetainedRounds {
		return fmt.Errorf("%w: round %d, floor %d", ErrRoundTooFar, v.Round, floor)
	}
	n := d.committee.Size()
	if int(v.Source) >= n {
		return fmt.Errorf("%w: round %d source %s", ErrUnknownSource, v.Round, v.Source)
	}
	if len(v.Edges) > n {
		return fmt.Errorf("%w: %s lists %d edges, committee of %d", ErrTooManyEdges, v, len(v.Edges), n)
	}
	rs := d.rounds.At(v.Round)
	if existing := d.at(v.Round, v.Source); existing != nil {
		if existing.digest == v.digest {
			return nil
		}
		return fmt.Errorf("%w: round %d source %s", ErrSlotOccupied, v.Round, v.Source)
	}
	d.resolved.Reset()
	if v.Round > floor {
		var missing []types.Digest
		// A header lists its parents in source order (Engine.propose walks
		// RoundVertices), so each edge is first looked for after the previous
		// edge's slot: n tag compares per vertex in all. An edge not found
		// there — out of order, absent, or pointing at another round — takes
		// a lookup, which tells the three apart.
		prev, next := d.rounds.At(v.Round-1), 0
		for _, e := range v.Edges {
			if at := prev.find(e, next); at >= 0 {
				d.resolved.Add(types.ValidatorID(at))
				next = at + 1
			} else if parent := d.lookup(e); parent == nil {
				missing = append(missing, e)
			} else if parent.Round == v.Round-1 {
				d.resolved.Add(parent.Source)
			} else {
				return fmt.Errorf("%w: %s references %s at round %d", ErrBadEdgeRound, v, parent.digest, parent.Round)
			}
		}
		if len(missing) > 0 {
			return &MissingParentsError{Vertex: v, Missing: missing}
		}
		if !d.resolved.ReachedQuorum() && (prev != nil || v.Round-1 > floor) {
			return fmt.Errorf("%w: %s has parents worth %d", ErrTooFewParents, v, d.resolved.Total())
		}
	}
	if rs == nil {
		rs = &roundSlots{
			vertices: make([]*Vertex, n),
			tags:     make([]uint64, n),
			parents:  make([]uint64, n*d.words),
			present:  types.NewValidatorSet(n),
		}
		d.rounds.Set(v.Round, rs)
	}
	rs.vertices[v.Source] = v
	rs.tags[v.Source] = digestTag(v.digest)
	copy(rs.parentsOf(v.Source, d.words), d.resolved.Members())
	rs.present.Add(v.Source)
	rs.stake += d.committee.Stake(v.Source)
	if v.Round > d.highest {
		d.highest = v.Round
	}
	return nil
}

// Get returns the vertex produced by source at round, if present.
func (d *DAG) Get(round types.Round, source types.ValidatorID) (*Vertex, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v := d.at(round, source)
	return v, v != nil
}

// RoundVertices returns the vertices of a round sorted by source ID.
//
//hammerlint:deterministic
func (d *DAG) RoundVertices(round types.Round) []*Vertex {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rs := d.rounds.At(round)
	if rs == nil {
		return nil
	}
	return rs.appendVertices(make([]*Vertex, 0, rs.present.Len()), rs.present)
}

// appendVertices appends the vertices of the given occupied slots in
// ascending source order.
func (rs *roundSlots) appendVertices(out []*Vertex, sources types.ValidatorSet) []*Vertex {
	for id := range sources.All() {
		out = append(out, rs.vertices[id])
	}
	return out
}

// RoundStake returns the total stake of the sources present at round.
func (d *DAG) RoundStake(round types.Round) types.Stake {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if rs := d.rounds.At(round); rs != nil {
		return rs.stake
	}
	return 0
}

// HasQuorumAt reports whether round holds vertices worth a write quorum.
func (d *DAG) HasQuorumAt(round types.Round) bool {
	return d.RoundStake(round) >= d.committee.QuorumThreshold()
}

// HasEdge reports whether v directly references u (a one-hop vote).
func (d *DAG) HasEdge(v, u *Vertex) bool {
	if v == nil || u == nil || v.Round != u.Round+1 {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.holds(v) && d.holds(u) &&
		d.rounds.At(v.Round).parentsOf(v.Source, d.words).Has(u.Source)
}

// sweepDown ORs into next the parents of the given sources of round rs: the
// sources reached one round down.
func (d *DAG) sweepDown(rs *roundSlots, sources, next types.ValidatorSet) {
	for id := range sources.All() {
		next.Union(rs.parentsOf(id, d.words))
	}
}

// Path reports whether there is a directed path from v down to u
// (v.Round >= u.Round; equality only when v == u). The sweep covers only
// rounds in [u.Round, v.Round], one set of reached sources per round, so the
// cost is bounded by the causal history between the two vertices.
func (d *DAG) Path(v, u *Vertex) bool {
	if v == nil || u == nil {
		return false
	}
	if v.Digest() == u.Digest() {
		return true
	}
	if v.Round <= u.Round {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.holds(v) || !d.holds(u) {
		return false
	}
	// Two sets, swapped per round; on the stack for committees up to 256.
	var buf [8]uint64
	sets := buf[:]
	if 2*d.words > len(buf) {
		sets = make([]uint64, 2*d.words)
	}
	reached, next := types.ValidatorSet(sets[:d.words]), types.ValidatorSet(sets[d.words:2*d.words])
	reached.Add(v.Source)
	for r := v.Round; r > u.Round; r-- {
		// A reached source is an occupied slot and u's round is retained, so
		// every round of the sweep exists.
		next.Clear()
		d.sweepDown(d.rounds.At(r), reached, next)
		if next.Empty() {
			return false
		}
		reached, next = next, reached
	}
	return reached.Has(u.Source)
}

// CausalHistory returns every vertex reachable from v (v included) with
// round >= minRound, in (round, source) order so all validators iterate
// identically. The skip predicate, when non-nil, prunes the walk: vertices
// for which skip returns true are neither visited nor returned (used to
// exclude already-ordered sub-DAGs).
//
//hammerlint:deterministic
func (d *DAG) CausalHistory(v *Vertex, minRound types.Round, skip func(*Vertex) bool) []*Vertex {
	if v == nil || v.Round < minRound || (skip != nil && skip(v)) {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.holds(v) {
		return nil
	}
	// reached holds one set per swept round, v's first: it grows with the
	// rounds the sweep actually descends, which the skip predicate and the
	// pruned floor bound long before minRound does on a live node.
	w := d.words
	reached := make([]uint64, w, 4*w)
	types.ValidatorSet(reached).Add(v.Source)
	total := 1
	for r := v.Round; r > minRound; r-- {
		below := d.rounds.At(r - 1)
		if below == nil {
			break // pruned: the history ends at the floor
		}
		for i := 0; i < w; i++ {
			reached = append(reached, 0)
		}
		next := types.ValidatorSet(reached[len(reached)-w:])
		d.sweepDown(d.rounds.At(r), reached[len(reached)-2*w:len(reached)-w], next)
		if skip != nil {
			for id := range next.All() {
				if skip(below.vertices[id]) {
					next.Remove(id)
				}
			}
		}
		n := next.Len()
		if n == 0 {
			reached = reached[:len(reached)-w]
			break
		}
		total += n
	}
	// Emit bottom-up: ascending rounds, ascending sources within each.
	out := make([]*Vertex, 0, total)
	for i := len(reached)/w - 1; i >= 0; i-- {
		out = d.rounds.At(v.Round-types.Round(i)).appendVertices(out, reached[i*w:(i+1)*w])
	}
	return out
}

// Prune drops all rounds strictly below floor, releasing memory for
// long-running deployments. Callers must only prune below the lowest round
// still needed by the committer (i.e. at or below the last ordered round
// minus any sync slack).
func (d *DAG) Prune(floor types.Round) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rounds.DropBelow(floor)
}

// PrunedTo returns the lowest retained round.
func (d *DAG) PrunedTo() types.Round {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rounds.Floor()
}

// VertexCount returns the number of stored vertices (post-pruning).
func (d *DAG) VertexCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for r := d.rounds.Floor(); r < d.rounds.End(); r++ {
		if rs := d.rounds.At(r); rs != nil {
			n += rs.present.Len()
		}
	}
	return n
}
