package core

import (
	"fmt"

	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// EpochPolicy selects when schedule epochs end.
type EpochPolicy uint8

const (
	// EpochByRounds ends an epoch when an anchor about to be ordered has
	// round >= activeSchedule.initialRound + T — the paper's Algorithm 2
	// ("T: schedule-change frequency").
	EpochByRounds EpochPolicy = iota + 1
	// EpochByCommits ends an epoch after C ordered anchors — the policy the
	// paper's evaluation and the Sui deployment use ("the leader-reputation
	// schedule is recomputed every 10 commits"; mainnet uses 300).
	EpochByCommits
)

// Config parameterizes the HammerHead scheduler. The zero value is invalid;
// use DefaultConfig as a base.
type Config struct {
	// Policy selects rounds- or commits-based epochs.
	Policy EpochPolicy
	// EpochRounds is T for EpochByRounds (must be even, >= 2).
	EpochRounds types.Round
	// EpochCommits is C for EpochByCommits (>= 1).
	EpochCommits int
	// MaxSwapStake bounds the stake of the replaced set B. The paper uses f
	// (the maximum tolerable faulty stake); the evaluation's "33% less
	// performant" equals f for equal-stake committees. Zero means "use f".
	MaxSwapStake types.Stake
	// Scoring selects the reputation rule.
	Scoring ScoringRule
	// SwapFromBase applies each swap to the initial (base) schedule rather
	// than the previous one, matching Sui's LeaderSwapTable: recomputation is
	// memoryless, so a recovered validator regains its exact original slots.
	// When false, swaps compound on the previous schedule (the paper's
	// literal wording).
	SwapFromBase bool
	// Seed feeds the deterministic permutation of the initial schedule.
	Seed uint64
}

// DefaultConfig matches the paper's evaluation: recompute every 10 commits,
// swap up to f stake, vote-based scoring, memoryless swaps.
func DefaultConfig() Config {
	return Config{
		Policy:       EpochByCommits,
		EpochCommits: 10,
		EpochRounds:  20,
		Scoring:      ScoringVotes,
		SwapFromBase: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Policy {
	case EpochByRounds:
		if c.EpochRounds < 2 || !c.EpochRounds.IsAnchorRound() {
			return fmt.Errorf("core: EpochRounds must be even and >= 2, got %d", c.EpochRounds)
		}
	case EpochByCommits:
		if c.EpochCommits < 1 {
			return fmt.Errorf("core: EpochCommits must be >= 1, got %d", c.EpochCommits)
		}
	default:
		return fmt.Errorf("core: unknown epoch policy %d", c.Policy)
	}
	switch c.Scoring {
	case ScoringVotes, ScoringShoal:
	default:
		return fmt.Errorf("core: unknown scoring rule %d", c.Scoring)
	}
	return nil
}

// Manager is the HammerHead scheduler: a leader.Scheduler whose schedule
// evolves with the committed prefix. It must be driven by a single
// committer; it is not safe for concurrent use.
type Manager struct {
	config    Config
	committee *types.Committee
	dag       *dag.DAG
	history   *leader.History
	baseSlots []types.ValidatorID

	// Epoch progress.
	commitsThisEpoch int
	// Shoal scoring state (incremental).
	shoalScores           Scores
	lastOrderedAnchor     types.Round
	haveLastOrderedAnchor bool

	// Observability.
	decisions []SwapDecision
	// Carried over from a RestoreState so SwitchCount/Excluded stay
	// meaningful after a snapshot install (decisions restart empty).
	restoredSwitches int
	restoredExcluded []types.ValidatorID
	restoredScores   Scores
}

var _ leader.Scheduler = (*Manager)(nil)

// NewManager builds a HammerHead scheduler over the validator's DAG.
func NewManager(committee *types.Committee, d *dag.DAG, config Config) (*Manager, error) {
	if err := config.Validate(); err != nil {
		return nil, err
	}
	if config.MaxSwapStake == 0 {
		config.MaxSwapStake = committee.MaxFaultyStake()
	}
	initial := leader.NewInitialSchedule(committee, config.Seed)
	return &Manager{
		config:      config,
		committee:   committee,
		dag:         d,
		history:     leader.NewHistory(initial),
		baseSlots:   initial.Slots(),
		shoalScores: make(Scores),
	}, nil
}

// LeaderAt implements leader.Scheduler via the schedule history, so rounds
// below the active schedule resolve under the schedule that covered them.
func (m *Manager) LeaderAt(round types.Round) types.ValidatorID {
	return m.history.LeaderAt(round)
}

// MaybeSwitch implements leader.Scheduler. Called by the committer before
// ordering each anchor; if the anchor ends the epoch, the next schedule is
// computed from reputation scores and installed with initialRound =
// anchor.Round, and the committer restarts its walk (the anchor itself is
// re-evaluated under the new schedule — the paper's early return from
// orderHistory).
//
//hammerlint:deterministic
func (m *Manager) MaybeSwitch(anchor leader.AnchorInfo) bool {
	active := m.history.Active()
	switch m.config.Policy {
	case EpochByRounds:
		if anchor.Round < active.InitialRound()+m.config.EpochRounds {
			return false
		}
	case EpochByCommits:
		if m.commitsThisEpoch < m.config.EpochCommits {
			return false
		}
	}
	m.switchSchedule(anchor)
	return true
}

// switchSchedule computes scores for the ending epoch, derives the new slot
// cycle and installs it.
func (m *Manager) switchSchedule(anchor leader.AnchorInfo) {
	active := m.history.Active()
	epochStart := active.InitialRound()

	var scores Scores
	switch m.config.Scoring {
	case ScoringVotes:
		anchorVertex, ok := m.dag.Get(anchor.Round, anchor.Source)
		if !ok {
			// Unreachable when driven by the committer: it only hands over
			// anchors it found in the DAG. Treat as empty scores.
			anchorVertex = nil
		}
		if anchorVertex != nil {
			scores = computeVoteScores(m.dag, m.history, anchorVertex, epochStart)
		} else {
			scores = make(Scores)
		}
	case ScoringShoal:
		scores = m.shoalScores.Clone()
	}

	base := m.baseSlots
	if !m.config.SwapFromBase {
		base = m.history.Active().Slots()
	}
	newSlots, decision := computeSwap(m.committee, base, scores, m.config.MaxSwapStake)
	decision.EpochStart = epochStart
	decision.EpochEnd = anchor.Round

	next, err := leader.NewSchedule(anchor.Round, newSlots)
	if err != nil {
		// Unreachable: anchor rounds are even and slot cycles non-empty.
		panic(fmt.Sprintf("core: building schedule: %v", err))
	}
	if err := m.history.Append(next); err != nil {
		// Unreachable: MaybeSwitch only fires for anchors past the active
		// schedule's initial round.
		panic(fmt.Sprintf("core: appending schedule: %v", err))
	}

	m.decisions = append(m.decisions, decision)
	m.commitsThisEpoch = 0
	m.shoalScores = make(Scores)
}

// OnAnchorOrdered implements leader.Scheduler: advances the commit-count
// epoch clock and the incremental Shoal scores.
//
//hammerlint:deterministic
func (m *Manager) OnAnchorOrdered(anchor leader.AnchorInfo) {
	m.commitsThisEpoch++
	if m.config.Scoring == ScoringShoal {
		if m.haveLastOrderedAnchor {
			// Leaders of anchor rounds skipped between consecutive ordered
			// anchors lose a point each — but only rounds the ACTIVE schedule
			// covers. The walk from lastOrderedAnchor+2 can span a schedule
			// switch (shoalScores was just reset for the new epoch); without
			// the clamp, penalties earned under the old epoch's schedule land
			// in the new epoch's fresh score map, so a leader skipped once
			// near an epoch boundary would be punished twice.
			start := m.lastOrderedAnchor + 2
			if init := m.history.Active().InitialRound(); start < init {
				start = init
			}
			for r := start; r < anchor.Round; r += 2 {
				if id := m.history.LeaderAt(r); id != types.NoValidator {
					m.shoalScores[id]--
				}
			}
		}
		m.shoalScores[anchor.Source]++
	}
	m.lastOrderedAnchor = anchor.Round
	m.haveLastOrderedAnchor = true
}

// History exposes the schedule history (read-only use).
func (m *Manager) History() *leader.History { return m.history }

// ActiveSchedule returns the currently active schedule.
func (m *Manager) ActiveSchedule() *leader.Schedule { return m.history.Active() }

// Decisions returns all swap decisions so far (shared slice; do not mutate).
func (m *Manager) Decisions() []SwapDecision { return m.decisions }

// SwitchCount returns how many schedule switches have occurred, including
// those performed before a restored snapshot was cut.
func (m *Manager) SwitchCount() int { return m.restoredSwitches + len(m.decisions) }

// Excluded returns the validators currently without slots relative to their
// base allocation, i.e. the B set of the latest decision (falling back to
// the exclusions carried in a restored state). Empty before the first switch.
func (m *Manager) Excluded() []types.ValidatorID {
	if len(m.decisions) == 0 {
		return append([]types.ValidatorID(nil), m.restoredExcluded...)
	}
	last := m.decisions[len(m.decisions)-1]
	return append([]types.ValidatorID(nil), last.Bad...)
}

// MinRetainedRound implements leader.Scheduler: the lowest round the
// scheduler may still read from the DAG (score scans reach back to the
// active epoch start). DAG pruning must stay strictly below this.
func (m *Manager) MinRetainedRound() types.Round {
	start := m.history.Active().InitialRound()
	if start == 0 {
		return 0
	}
	// Votes at the epoch's first round reference the previous round's leader.
	return start - 1
}
