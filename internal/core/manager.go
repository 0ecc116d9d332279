package core

import (
	"fmt"

	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// Config parameterizes the HammerHead scheduler. The zero value is invalid;
// use DefaultConfig as a base. The swap budget is always f (the committee's
// maximum tolerable faulty stake; the evaluation's "33% less performant" for
// equal stakes); every swap applies to the initial (base) slots, as Sui's
// LeaderSwapTable does, so a validator that recovers regains its exact
// slots; and the seed of the initial schedule is NewManager's.
type Config struct {
	// EpochCommits is how many ordered anchors end a schedule epoch (>= 1):
	// the paper's evaluation and the Sui deployment recompute the schedule
	// every C commits ("the leader-reputation schedule is recomputed every
	// 10 commits"; mainnet uses 300).
	EpochCommits int
	// Scoring selects the reputation rule.
	Scoring ScoringRule
}

// DefaultConfig matches the paper's evaluation: recompute every 10 commits
// with vote-based scoring.
func DefaultConfig() Config {
	return Config{EpochCommits: 10, Scoring: ScoringVotes}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.EpochCommits < 1 {
		return fmt.Errorf("core: EpochCommits must be >= 1, got %d", c.EpochCommits)
	}
	switch c.Scoring {
	case ScoringVotes, ScoringShoal:
	default:
		return fmt.Errorf("core: unknown scoring rule %d", c.Scoring)
	}
	return nil
}

// Manager is the HammerHead scheduler: a leader.Scheduler whose schedule
// evolves with the committed prefix. Its state is exactly what a checkpoint
// carries (ManagerState), so a live validator and one restored from a
// checkpoint hold the same thing. It must be driven by a single committer;
// it is not safe for concurrent use.
type Manager struct {
	config    Config
	committee *types.Committee
	dag       *dag.DAG
	st        ManagerState
}

var _ leader.Scheduler = (*Manager)(nil)

// NewManager builds a HammerHead scheduler over the validator's DAG, starting
// from the initial schedule the seed permutes (see leader.NewInitialSchedule).
func NewManager(committee *types.Committee, d *dag.DAG, config Config, seed uint64) (*Manager, error) {
	if err := config.Validate(); err != nil {
		return nil, err
	}
	initial := leader.NewInitialSchedule(committee, seed)
	return &Manager{
		config:    config,
		committee: committee,
		dag:       d,
		st: ManagerState{
			history:     leader.NewHistory(initial),
			baseSlots:   initial.Slots(),
			shoalScores: make(Scores),
		},
	}, nil
}

// LeaderAt implements leader.Scheduler via the schedule history, so rounds
// below the active schedule resolve under the schedule that covered them.
func (m *Manager) LeaderAt(round types.Round) types.ValidatorID {
	return m.st.history.LeaderAt(round)
}

// MaybeSwitch implements leader.Scheduler. Called by the committer before
// ordering each anchor; if the anchor ends the epoch (EpochCommits anchors
// were ordered since the last switch), the next schedule is computed from
// reputation scores and installed with initialRound = anchor.Round, and the
// committer restarts its walk (the anchor itself is re-evaluated under the
// new schedule — the paper's early return from orderHistory).
//
//hammerlint:deterministic
func (m *Manager) MaybeSwitch(anchor leader.AnchorInfo) bool {
	if m.st.commitsThisEpoch < m.config.EpochCommits {
		return false
	}
	m.switchSchedule(anchor)
	return true
}

// switchSchedule computes scores for the ending epoch, derives the new slot
// cycle from the base slots and installs it. The new history holds the
// schedule covering anchor.Round-1 (votes at the new epoch's first round
// reference that round's leader) and the new one: nothing below
// MinRetainedRound is kept. Histories are never mutated once installed, so
// exports share them.
func (m *Manager) switchSchedule(anchor leader.AnchorInfo) {
	epochStart := m.st.history.Active().InitialRound()

	var scores Scores
	switch m.config.Scoring {
	case ScoringVotes:
		// The committer only hands over anchors it found in the DAG; a
		// missing one would score empty.
		if anchorVertex, ok := m.dag.Get(anchor.Round, anchor.Source); ok {
			scores = computeVoteScores(m.dag, m.st.history, anchorVertex, epochStart)
		}
	case ScoringShoal:
		scores = m.st.shoalScores
	}
	newSlots, decision := computeSwap(m.committee, m.st.baseSlots, scores, m.committee.MaxFaultyStake())

	next, err := leader.NewSchedule(anchor.Round, newSlots)
	if err != nil {
		// Unreachable: anchor rounds are even and slot cycles non-empty.
		panic(fmt.Sprintf("core: building schedule: %v", err))
	}
	history := leader.NewHistory(m.st.history.At(anchor.Round - 1))
	if err := history.Append(next); err != nil {
		// Unreachable: MaybeSwitch only fires for anchors past the active
		// schedule's initial round.
		panic(fmt.Sprintf("core: appending schedule: %v", err))
	}

	m.st.history = history
	m.st.commitsThisEpoch = 0
	m.st.shoalScores = make(Scores)
	m.st.switches++
	m.st.excluded = decision.Bad
	m.st.epochScores = decision.Scores
}

// OnAnchorOrdered implements leader.Scheduler: advances the commit-count
// epoch clock and the incremental Shoal scores.
//
//hammerlint:deterministic
func (m *Manager) OnAnchorOrdered(anchor leader.AnchorInfo) {
	m.st.commitsThisEpoch++
	if m.config.Scoring == ScoringShoal {
		if m.st.haveLastOrderedAnchor {
			// Leaders of anchor rounds skipped between consecutive ordered
			// anchors lose a point each — but only rounds the ACTIVE schedule
			// covers. The walk from lastOrderedAnchor+2 can span a schedule
			// switch (shoalScores was just reset for the new epoch); without
			// the clamp, penalties earned under the old epoch's schedule land
			// in the new epoch's fresh score map, so a leader skipped once
			// near an epoch boundary would be punished twice.
			start := m.st.lastOrderedAnchor + 2
			if init := m.st.history.Active().InitialRound(); start < init {
				start = init
			}
			for r := start; r < anchor.Round; r += 2 {
				if id := m.st.history.LeaderAt(r); id != types.NoValidator {
					m.st.shoalScores[id]--
				}
			}
		}
		m.st.shoalScores[anchor.Source]++
	}
	m.st.lastOrderedAnchor = anchor.Round
	m.st.haveLastOrderedAnchor = true
}

// History exposes the schedule history (read-only use): the active schedule
// and the one before it, or the initial schedule alone before any switch.
func (m *Manager) History() *leader.History { return m.st.history }

// SwitchCount returns how many schedule switches have occurred, including
// those performed before a restored snapshot was cut.
func (m *Manager) SwitchCount() int { return m.st.switches }

// Excluded returns the validators the latest swap scored out of the schedule
// relative to their base allocation (the latest B set). Empty before the
// first switch.
func (m *Manager) Excluded() []types.ValidatorID {
	return append([]types.ValidatorID(nil), m.st.excluded...)
}

// MinRetainedRound implements leader.Scheduler: the lowest round the
// scheduler may still read from the DAG (see ManagerState.MinRetainedRound).
func (m *Manager) MinRetainedRound() types.Round { return m.st.MinRetainedRound() }
