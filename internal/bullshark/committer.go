// Package bullshark implements the Bullshark commit rule (the paper's
// Algorithm 2) over the local DAG, parameterized by a leader scheduler:
// plugging in leader.RoundRobin yields the paper's baseline, plugging in
// core.Manager yields HammerHead.
//
// The committer is the single driver of the scheduler, and every decision it
// makes is a deterministic function of (a) the vertices in the committed
// causal histories and (b) the schedule history — both of which are
// identical across honest validators for the same committed prefix. The
// package's tests feed the same DAG to committers in different arrival
// orders and assert prefix-consistent outputs, which is the paper's Total
// Order + Schedule Agreement argument in executable form.
//
// Every commit carries the scheduler's export (leader.Scheduler.ExportState)
// taken right after its anchor was ordered, under either scheduler: that is
// what the executor's checkpoints carry and a snapshot install restores.
//
// That single driver runs on the engine goroutine, inside the step that
// inserts each vertex, in every runtime. ProcessVertex is a pure function of
// the vertex sequence it is fed, so replaying a validator's recorded
// insertion order reproduces its commit stream byte for byte — the contract
// the replay determinism tests (engine TestOneFloor, simnet
// TestReplayedOrderingMatchesLive) pin down.
package bullshark

import (
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// CommittedSubDAG is one commit: an anchor plus every not-yet-ordered vertex
// in its causal history, in deterministic (round, source) order. This is the
// unit handed to execution.
type CommittedSubDAG struct {
	// Index is the 1-based commit sequence number.
	Index uint64
	// Anchor is the committed leader vertex.
	Anchor *dag.Vertex
	// Vertices is the newly ordered causal history (anchor included, last).
	Vertices []*dag.Vertex
	// Direct reports whether the anchor was committed by the direct rule
	// (f+1 votes observed) rather than recursively through a later anchor.
	Direct bool
	// SchedulerState is the scheduler's exported state immediately after this
	// commit was ordered — exactly what a node restoring from a checkpoint
	// cut at this commit must resume with. Under the round-robin baseline it
	// is the baseline itself, which encodes to nothing.
	SchedulerState leader.SchedulerState
}

// TxCount returns the number of transactions carried by the sub-DAG.
func (s *CommittedSubDAG) TxCount() int {
	n := 0
	for _, v := range s.Vertices {
		if v.Batch != nil {
			n += len(v.Batch.Transactions)
		}
	}
	return n
}

// Stats are cumulative committer counters for observability and the
// leader-utilization experiments.
type Stats struct {
	// DirectCommits counts anchors committed via the f+1-votes rule.
	DirectCommits uint64
	// IndirectCommits counts anchors committed through the backward walk.
	IndirectCommits uint64
	// SkippedAnchors counts anchor rounds whose leader was never committed
	// (the quantity Leader Utilization bounds).
	SkippedAnchors uint64
	// OrderedVertices counts all vertices delivered.
	OrderedVertices uint64
	// ScheduleSwitches counts schedule changes applied during commits.
	ScheduleSwitches uint64
	// DiscardedTips counts direct commits abandoned because a schedule
	// switch changed the tip round's leader.
	DiscardedTips uint64
}

// anchorVotes accumulates direct-commit support for one anchor round,
// invalidated when a schedule switch changes the round's leader.
type anchorVotes struct {
	leader types.ValidatorID
	acc    *types.StakeAccumulator
}

// Committer runs the Bullshark ordering logic for one validator. Not safe
// for concurrent use.
type Committer struct {
	committee *types.Committee
	dag       *dag.DAG
	scheduler leader.Scheduler

	lastOrderedRound types.Round
	// ordered is the set of delivered vertices, one ValidatorSet of sources
	// per round; its floor is the ordering floor, below which sub-DAG walks
	// do not descend. installed is the part of the set this committer never
	// derived: the boundary window of an installed snapshot, which names
	// vertices by digest only (execution.OrderedRef) and may list some before
	// the DAG holds them. Nil unless a snapshot was installed, and pruned
	// away with the rounds it covers.
	ordered     types.RoundWindow[types.ValidatorSet]
	installed   map[types.Digest]types.Round
	votes       map[types.Round]*anchorVotes
	commitIndex uint64
	stats       Stats
}

// New builds a committer over the validator's DAG and scheduler. The
// scheduler must be exclusive to this committer (it mutates on commit).
func New(committee *types.Committee, d *dag.DAG, scheduler leader.Scheduler) *Committer {
	return &Committer{
		committee: committee,
		dag:       d,
		scheduler: scheduler,
		votes:     make(map[types.Round]*anchorVotes),
	}
}

// LastOrderedRound returns the round of the latest ordered anchor.
func (c *Committer) LastOrderedRound() types.Round { return c.lastOrderedRound }

// Stats returns a copy of the cumulative counters.
func (c *Committer) Stats() Stats { return c.stats }

// Scheduler returns the scheduler driving leader resolution.
func (c *Committer) Scheduler() leader.Scheduler { return c.scheduler }

// ProcessVertex runs the direct-commit check for a vertex just added to the
// DAG and returns the sub-DAGs it commits, in delivery order.
//
// The trigger is the rule the Sui implementation uses: an anchor at even
// round r commits directly once vertices worth f+1 stake at round r+1 link
// it, evaluated incrementally as round-(r+1) vertices insert. This is one
// round earlier than the paper's pseudocode (which observes the votes
// through the edge sets of round-(r+2) vertices) and strictly cheaper; the
// two rules are interchangeable for safety because all cross-validator
// agreement rests on the backward walk's Path checks over committed causal
// histories, not on who observed the trigger first.
//
//hammerlint:deterministic
func (c *Committer) ProcessVertex(v *dag.Vertex) []CommittedSubDAG {
	if v.Round.IsAnchorRound() || v.Round < 3 {
		// Only odd-round vertices vote. The first committable anchor round
		// is 2 (round-0 genesis is ordered as causal history, not as an
		// anchor).
		return nil
	}
	anchorRound := v.Round - 1
	if anchorRound <= c.lastOrderedRound {
		return nil
	}
	leaderID := c.scheduler.LeaderAt(anchorRound)
	anchor, ok := c.dag.Get(anchorRound, leaderID)
	if !ok {
		// The leader's vertex is a parent of any vertex that votes for it,
		// so its absence means v cannot be voting for it.
		return nil
	}
	st := c.votes[anchorRound]
	if st == nil || st.leader != leaderID {
		// First sight of this anchor round, or a schedule switch moved the
		// leadership: (re)build support from the vertices already present.
		st = &anchorVotes{leader: leaderID, acc: types.NewStakeAccumulator(c.committee)}
		c.votes[anchorRound] = st
		for _, u := range c.dag.RoundVertices(anchorRound + 1) {
			if c.dag.HasEdge(u, anchor) {
				st.acc.Add(u.Source)
			}
		}
	} else if c.dag.HasEdge(v, anchor) {
		st.acc.Add(v.Source)
	}
	if !st.acc.ReachedValidity() {
		return nil
	}
	return c.commitChain(anchor)
}

// commitChain orders the anchor chain ending at tip. It implements the
// paper's orderAnchors/orderHistory pair as an explicit fixpoint: when a
// schedule switch fires mid-chain, the walk restarts under the new schedule
// history (equivalently, orderHistory's early return followed by the next
// TryCommitting), and if the switch removed the tip's leadership the commit
// attempt is abandoned entirely.
func (c *Committer) commitChain(tip *dag.Vertex) []CommittedSubDAG {
	var out []CommittedSubDAG
	for {
		chain := c.backwardWalk(tip)
		restart := false
		for _, anchor := range chain {
			info := leader.AnchorInfo{Round: anchor.Round, Source: anchor.Source}
			if c.scheduler.MaybeSwitch(info) {
				c.stats.ScheduleSwitches++
				if c.scheduler.LeaderAt(tip.Round) != tip.Source {
					// The tip is no longer its round's leader under the new
					// schedule: this commit attempt evaporates; a future
					// direct commit re-decides the interval.
					c.stats.DiscardedTips++
					return out
				}
				restart = true
				break
			}
			out = append(out, c.orderSubDAG(anchor, anchor == tip))
			c.scheduler.OnAnchorOrdered(info)
			// Capture per anchor, AFTER the scheduler advanced: a checkpoint
			// cut at this commit must carry the state a live node holds after
			// processing exactly this commit — capturing once per chain would
			// leak later anchors' effects backwards.
			out[len(out)-1].SchedulerState = c.scheduler.ExportState()
		}
		if !restart {
			return out
		}
	}
}

// backwardWalk collects the anchor chain from tip down to (exclusive) the
// last ordered round: tip first, then each even round's anchor that the
// chain head can reach. Returned in ascending round order.
func (c *Committer) backwardWalk(tip *dag.Vertex) []*dag.Vertex {
	chain := []*dag.Vertex{tip}
	head := tip
	for r := tip.Round - 2; r >= 2 && r > c.lastOrderedRound; r -= 2 {
		leaderID := c.scheduler.LeaderAt(r)
		prev, ok := c.dag.Get(r, leaderID)
		if !ok {
			continue
		}
		if c.dag.Path(head, prev) {
			chain = append(chain, prev)
			head = prev
		}
	}
	// Reverse to ascending round order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// orderSubDAG delivers the anchor's not-yet-ordered causal history.
func (c *Committer) orderSubDAG(anchor *dag.Vertex, direct bool) CommittedSubDAG {
	vertices := c.dag.CausalHistory(anchor, c.ordered.Floor(), c.isOrdered)
	for _, u := range vertices {
		set := c.ordered.At(u.Round)
		if set == nil {
			set = types.NewValidatorSet(c.committee.Size())
			c.ordered.Set(u.Round, set)
		}
		set.Add(u.Source)
	}
	// Count anchor rounds skipped since the previous ordered anchor (the
	// chain starts at round 2, so lastOrderedRound == 0 counts from there).
	if anchor.Round > c.lastOrderedRound+2 {
		c.stats.SkippedAnchors += uint64((anchor.Round-c.lastOrderedRound)/2 - 1)
	}
	c.lastOrderedRound = anchor.Round
	for r := range c.votes {
		if r <= anchor.Round {
			delete(c.votes, r)
		}
	}
	c.commitIndex++
	if direct {
		c.stats.DirectCommits++
	} else {
		c.stats.IndirectCommits++
	}
	c.stats.OrderedVertices += uint64(len(vertices))
	return CommittedSubDAG{
		Index:    c.commitIndex,
		Anchor:   anchor,
		Vertices: vertices,
		Direct:   direct,
	}
}

// isOrdered reports whether u was already delivered, by this committer or
// inside the snapshot it resumed from.
func (c *Committer) isOrdered(u *dag.Vertex) bool {
	if c.ordered.At(u.Round).Has(u.Source) {
		return true
	}
	if len(c.installed) == 0 {
		return false
	}
	_, done := c.installed[u.Digest()]
	return done
}

// FastForward jumps the committer past ordering history it never derived —
// the snapshot state-sync install path. Ordering resumes as if commit
// commitIndex (anchor at round) had just been delivered: the next anchor
// considered is the first one above round, sub-DAG walks stop at floor, and
// ordered seeds the already-ordered set for rounds >= floor (the snapshot's
// boundary window), so boundary stragglers are ordered exactly as live
// validators order them. The caller prunes the DAG separately.
//
//hammerlint:deterministic
func (c *Committer) FastForward(round types.Round, commitIndex uint64, floor types.Round, ordered map[types.Digest]types.Round) {
	if round <= c.lastOrderedRound {
		return // never move ordering backwards
	}
	c.lastOrderedRound = round
	c.commitIndex = commitIndex
	c.ordered = types.NewRoundWindow[types.ValidatorSet](floor)
	c.installed = make(map[types.Digest]types.Round, len(ordered))
	for d, r := range ordered {
		c.installed[d] = r
	}
	c.votes = make(map[types.Round]*anchorVotes)
}

// Prune releases DAG rounds and ordered-set entries below floor. Callers
// must keep floor at or below both the last ordered round and the
// scheduler's minimum retained round (score scans read the active epoch).
// It returns the released vertices that no commit delivered — and, now that
// the DAG has dropped them, none will: the payload of a vertex nobody
// referenced in time (its producer ran late) is lost here.
func (c *Committer) Prune(floor types.Round) (unordered []*dag.Vertex) {
	if floor > c.lastOrderedRound {
		floor = c.lastOrderedRound
	}
	if floor <= c.ordered.Floor() {
		return nil
	}
	for r := c.ordered.Floor(); r < floor; r++ {
		for _, v := range c.dag.RoundVertices(r) {
			if !c.isOrdered(v) {
				unordered = append(unordered, v)
			}
		}
	}
	c.dag.Prune(floor)
	c.ordered.DropBelow(floor)
	for digest, round := range c.installed {
		if round < floor {
			delete(c.installed, digest)
		}
	}
	return unordered
}
