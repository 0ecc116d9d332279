// Package leader defines leader schedules for anchor rounds, the Scheduler
// contract the Bullshark committer and the engine drive, and the static
// round-robin scheduler that is the paper's Bullshark baseline.
//
// A Schedule maps even ("anchor") rounds to leader slots. The initial
// schedule S0 is stake-proportional and deterministically permuted from a
// shared seed, exactly as the paper prescribes: "each validator u being the
// leader of TR × stake(u)/Σ stake(u) rounds in order and then randomly
// permute them" — with integer stakes this is stake(u) slots per validator
// per cycle. HammerHead's dynamic scheduler (internal/core) produces new
// Schedules by swapping slots; the Schedule type itself stays immutable, and
// a History holds only the schedules covering the rounds at or above the
// scheduler's MinRetainedRound.
//
// Both schedulers implement the whole Scheduler contract: the schedule is a
// function of the committed prefix, so every checkpoint carries the
// scheduler's export and every install restores it. The baseline's export is
// itself and encodes to nothing, so its checkpoints carry no state bytes.
package leader

import (
	"fmt"
	"math"
	"math/rand"

	"hammerhead/internal/types"
)

// Schedule assigns a leader to every anchor (even) round at or after
// InitialRound. Slot i covers anchor round InitialRound + 2i, wrapping
// around the slot cycle. Immutable after construction.
type Schedule struct {
	initialRound types.Round
	slots        []types.ValidatorID
}

// NewSchedule builds a schedule starting at initialRound (must be even) with
// the given slot cycle. The slot slice is copied.
func NewSchedule(initialRound types.Round, slots []types.ValidatorID) (*Schedule, error) {
	if !initialRound.IsAnchorRound() {
		return nil, fmt.Errorf("leader: initial round %d must be an anchor (even) round", initialRound)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("leader: schedule needs at least one slot")
	}
	return &Schedule{
		initialRound: initialRound,
		slots:        append([]types.ValidatorID(nil), slots...),
	}, nil
}

// InitialRound is the first anchor round this schedule covers.
func (s *Schedule) InitialRound() types.Round { return s.initialRound }

// Slots returns a copy of the slot cycle.
func (s *Schedule) Slots() []types.ValidatorID {
	return append([]types.ValidatorID(nil), s.slots...)
}

// LeaderAt returns the leader of the given anchor round. It returns
// NoValidator for odd rounds (which have no leader) and for rounds before
// InitialRound (covered by an earlier schedule; consult the history).
func (s *Schedule) LeaderAt(round types.Round) types.ValidatorID {
	if !round.IsAnchorRound() || round < s.initialRound {
		return types.NoValidator
	}
	idx := uint64(round-s.initialRound) / 2 % uint64(len(s.slots))
	return s.slots[idx]
}

// SlotsOf counts the slots held by each validator in one cycle.
func (s *Schedule) SlotsOf() map[types.ValidatorID]int {
	out := make(map[types.ValidatorID]int)
	for _, id := range s.slots {
		out[id]++
	}
	return out
}

// BaseSlots returns the unpermuted stake-proportional slot cycle: validator
// u appears stake(u) times, in ID order. Total cycle length is the total
// stake of the committee.
//
//hammerlint:deterministic
func BaseSlots(committee *types.Committee) []types.ValidatorID {
	slots := make([]types.ValidatorID, 0, committee.TotalStake())
	for _, a := range committee.Authorities() {
		for i := types.Stake(0); i < a.Stake; i++ {
			slots = append(slots, a.ID)
		}
	}
	return slots
}

// NewInitialSchedule builds S0: base slots deterministically permuted from
// the shared seed, starting at round 0. Every validator derives the same S0
// from the same seed — no communication needed.
//
//hammerlint:deterministic
func NewInitialSchedule(committee *types.Committee, seed uint64) *Schedule {
	slots := BaseSlots(committee)
	rng := rand.New(rand.NewSource(int64(seed))) //nolint:gosec // deterministic by design
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	s, err := NewSchedule(0, slots)
	if err != nil {
		// Unreachable: committees are non-empty with positive stake.
		panic(fmt.Sprintf("leader: building initial schedule: %v", err))
	}
	return s
}

// History is a run of schedules keyed by ascending InitialRound. It answers
// "who led round r" for the rounds at or above its scheduler's
// MinRetainedRound — required because HammerHead validators must
// retroactively evaluate anchors under the schedule that was active at their
// round, even after a newer schedule was installed (paper §3.1). HammerHead
// keeps the active schedule and the one before it: a switch builds a new
// History rather than appending to one an export may share.
type History struct {
	schedules []*Schedule
}

// NewHistory starts a history with its first schedule.
func NewHistory(first *Schedule) *History {
	return &History{schedules: []*Schedule{first}}
}

// Append adds a schedule while a history is being built. Its InitialRound
// must be strictly greater than the current active schedule's.
func (h *History) Append(s *Schedule) error {
	if last := h.Active(); s.InitialRound() <= last.InitialRound() {
		return fmt.Errorf("leader: new schedule initial round %d not after active %d",
			s.InitialRound(), last.InitialRound())
	}
	h.schedules = append(h.schedules, s)
	return nil
}

// Active returns the most recently installed schedule.
func (h *History) Active() *Schedule { return h.schedules[len(h.schedules)-1] }

// Len returns the number of schedules held.
func (h *History) Len() int { return len(h.schedules) }

// At returns the schedule covering the given round: the one with the
// greatest InitialRound <= round. Rounds before the first schedule fall back
// to the first schedule.
func (h *History) At(round types.Round) *Schedule {
	// Binary search for the last schedule with InitialRound <= round.
	lo, hi := 0, len(h.schedules)-1
	best := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if h.schedules[mid].InitialRound() <= round {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return h.schedules[best]
}

// LeaderAt returns the leader of the anchor round under the schedule that
// covers it, or NoValidator for odd rounds.
func (h *History) LeaderAt(round types.Round) types.ValidatorID {
	return h.At(round).LeaderAt(round)
}

// Schedules returns the installed schedules in order (shared slice header,
// callers must not mutate).
func (h *History) Schedules() []*Schedule { return h.schedules }

// Scheduler is the interface the Bullshark committer and the engine use to
// resolve leaders and to carry the schedule across checkpoints. The baseline
// round-robin scheduler never switches; the HammerHead scheduler
// (internal/core) switches deterministically on the committed prefix.
type Scheduler interface {
	// LeaderAt resolves the leader of an anchor round under the schedule
	// history (never only the active schedule).
	LeaderAt(round types.Round) types.ValidatorID
	// MaybeSwitch is called by the committer just before ordering an anchor.
	// If the anchor ends the current schedule epoch, the scheduler computes
	// and installs the next schedule and returns true; the committer then
	// restarts its walk (paper Alg 2's early return from orderHistory).
	MaybeSwitch(anchor AnchorInfo) bool
	// OnAnchorOrdered is called after an anchor's sub-DAG is ordered, in
	// commit order. HammerHead's commit-count epochs and incremental scoring
	// rules hook here.
	OnAnchorOrdered(anchor AnchorInfo)
	// ExportState captures the state a checkpoint carries. The committer
	// calls it right after each anchor is ordered, so the state attached to
	// commit N is exactly the scheduler state a live node holds after
	// processing commit N. Exports must be cheap (share immutable schedules,
	// copy only the score map) and immutable once returned.
	ExportState() SchedulerState
	// RestoreState re-establishes an exported state from its encoded form.
	// The executor calls it when it installs a snapshot, after every check
	// on the snapshot passed and just before the ledger is adopted, so
	// ordering resumes under the exact schedule the snapshot was cut under.
	// It must either fully install the decoded state or leave the scheduler
	// untouched and return an error (no partial mutation); an error refuses
	// the whole install.
	RestoreState(data []byte) error
	// FastForwardTo is called when the engine jumps to a snapshot's anchor
	// round, past ordering history it never saw, after RestoreState.
	FastForwardTo(round types.Round)
	// MinRetainedRound is the lowest round the scheduler may still read from
	// the DAG; the engine never prunes at or above it.
	MinRetainedRound() types.Round
}

// AnchorInfo is the committer's view of an anchor handed to the scheduler.
// Defined here (not in the dag package) so schedulers do not depend on the
// committer and vice versa.
type AnchorInfo struct {
	Round  types.Round
	Source types.ValidatorID
}

// RoundRobin is the static baseline scheduler: the initial schedule forever.
// Immutable, so it is its own SchedulerState.
type RoundRobin struct {
	history *History
}

var (
	_ Scheduler      = (*RoundRobin)(nil)
	_ SchedulerState = (*RoundRobin)(nil)
)

// NewRoundRobin builds the baseline scheduler from the committee and seed.
func NewRoundRobin(committee *types.Committee, seed uint64) *RoundRobin {
	return &RoundRobin{history: NewHistory(NewInitialSchedule(committee, seed))}
}

// LeaderAt implements Scheduler.
func (r *RoundRobin) LeaderAt(round types.Round) types.ValidatorID {
	return r.history.LeaderAt(round)
}

// MaybeSwitch implements Scheduler; the baseline never switches.
func (r *RoundRobin) MaybeSwitch(AnchorInfo) bool { return false }

// OnAnchorOrdered implements Scheduler; the baseline ignores commits.
func (r *RoundRobin) OnAnchorOrdered(AnchorInfo) {}

// ExportState implements Scheduler: the baseline never changes, so it is its
// own export.
func (r *RoundRobin) ExportState() SchedulerState { return r }

// Encode implements SchedulerState: the schedule follows from the committee
// and seed, so nothing rides in a checkpoint.
func (r *RoundRobin) Encode() ([]byte, error) { return nil, nil }

// RestoreState implements Scheduler: only the baseline's own empty state is
// accepted. A snapshot cut under another scheduler is refused.
func (r *RoundRobin) RestoreState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("leader: round-robin scheduler cannot restore %d bytes of scheduler state", len(data))
	}
	return nil
}

// FastForwardTo implements Scheduler: the static schedule already covers
// every round, so jumping past unseen ordering history changes nothing.
func (r *RoundRobin) FastForwardTo(types.Round) {}

// MinRetainedRound implements Scheduler and SchedulerState: the baseline
// reads nothing from the DAG, so it never holds a pruning floor down.
func (r *RoundRobin) MinRetainedRound() types.Round { return math.MaxUint64 }

// History exposes the (single-entry) schedule history.
func (r *RoundRobin) History() *History { return r.history }
