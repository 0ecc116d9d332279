package core

import (
	"fmt"
	"sort"

	"hammerhead/internal/leader"
	"hammerhead/internal/types"
	"hammerhead/internal/wire"
)

// _managerStateV2 is the ManagerState encoding's version tag. Bodies with any
// other leading tag are rejected, so a format change cannot be silently
// misdecoded by an old binary. 0x01 (a gob body) is a retired generation: a
// format revision takes the next value up and never reuses one.
const _managerStateV2 = byte(0x02)

// Minimum encoded sizes bounding pre-allocation on decode.
const (
	_slotWire     = 4 // fixed u32 validator ID
	_scoreMinWire = 5 // 4-byte ID + >=1-byte varint score
	_schedMinWire = 9 // 8-byte initial round + >=1-byte slot count
)

// ManagerState is the whole state of a Manager, and an exported one is an
// immutable point-in-time copy of it: the schedule suffix still covering
// retained rounds, the epoch cursor and the partially accumulated Shoal
// scores (including skipped-anchor penalties), plus the switch count and the
// latest swap's scores and exclusions for observability. It rides inside
// execution checkpoints so a snapshot-synced validator re-establishes
// the exact schedule the committee computed (paper Proposition 1: the
// schedule is a deterministic function of the committed prefix — which is
// precisely the prefix the snapshot covers).
type ManagerState struct {
	history   *leader.History
	baseSlots []types.ValidatorID

	commitsThisEpoch      int
	shoalScores           Scores
	lastOrderedAnchor     types.Round
	haveLastOrderedAnchor bool

	// Observability: the switch count and the latest swap's outcome, carried
	// so /v1/status keeps working after a restore.
	switches    int
	excluded    []types.ValidatorID
	epochScores Scores
}

var _ leader.SchedulerState = (*ManagerState)(nil)

// scoreEntry is one validator's score in the deterministic wire form.
type scoreEntry struct {
	ID    types.ValidatorID
	Score int64
}

func sortedScores(s Scores) []scoreEntry {
	out := make([]scoreEntry, 0, len(s))
	for id, score := range s {
		out = append(out, scoreEntry{ID: id, Score: score})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Encode implements leader.SchedulerState: version tag + wire-codec body,
// deterministic for equal states (scores flattened ID-sorted; explicit field
// order).
//
//hammerlint:deterministic
func (st *ManagerState) Encode() ([]byte, error) {
	scheds := st.history.Schedules()
	buf := make([]byte, 0, 64+len(scheds)*16+len(st.baseSlots)*4+len(st.shoalScores)*10+len(st.epochScores)*10)
	buf = append(buf, _managerStateV2)
	buf = wire.AppendUvarint(buf, uint64(len(scheds)))
	for _, s := range scheds {
		buf = wire.AppendU64(buf, uint64(s.InitialRound()))
		buf = appendSlots(buf, s.Slots())
	}
	buf = appendSlots(buf, st.baseSlots)
	buf = wire.AppendVarint(buf, int64(st.commitsThisEpoch))
	buf = appendScores(buf, sortedScores(st.shoalScores))
	buf = wire.AppendU64(buf, uint64(st.lastOrderedAnchor))
	buf = wire.AppendBool(buf, st.haveLastOrderedAnchor)
	buf = wire.AppendVarint(buf, int64(st.switches))
	buf = appendSlots(buf, st.excluded)
	buf = appendScores(buf, sortedScores(st.epochScores))
	return buf, nil
}

func appendSlots(b []byte, ids []types.ValidatorID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = wire.AppendU32(b, uint32(id))
	}
	return b
}

func readSlots(r *wire.Reader) []types.ValidatorID {
	n := r.Count(_slotWire)
	if n == 0 {
		return nil
	}
	out := make([]types.ValidatorID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, types.ValidatorID(r.U32()))
	}
	return out
}

func appendScores(b []byte, entries []scoreEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = wire.AppendU32(b, uint32(e.ID))
		b = wire.AppendVarint(b, e.Score)
	}
	return b
}

func readScores(r *wire.Reader) Scores {
	n := r.Count(_scoreMinWire)
	out := make(Scores, n)
	for i := 0; i < n; i++ {
		id := types.ValidatorID(r.U32())
		score := r.Varint()
		if r.Err() != nil {
			break
		}
		out[id] = score
	}
	return out
}

// DecodeManagerState parses an encoded ManagerState, validating the version
// tag and the schedule suffix (non-empty, strictly ascending initial
// rounds).
func DecodeManagerState(data []byte) (*ManagerState, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty scheduler state")
	}
	if data[0] != _managerStateV2 {
		return nil, fmt.Errorf("core: unknown scheduler state version 0x%02x", data[0])
	}
	r := wire.NewReader(data[1:])
	type schedule struct {
		initialRound types.Round
		slots        []types.ValidatorID
	}
	var scheds []schedule
	for i, n := 0, r.Count(_schedMinWire); i < n; i++ {
		scheds = append(scheds, schedule{types.Round(r.U64()), readSlots(r)})
	}
	st := &ManagerState{
		baseSlots:             readSlots(r),
		commitsThisEpoch:      int(r.Varint()),
		shoalScores:           readScores(r),
		lastOrderedAnchor:     types.Round(r.U64()),
		haveLastOrderedAnchor: r.Bool(),
		switches:              int(r.Varint()),
		excluded:              readSlots(r),
		epochScores:           readScores(r),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("core: decoding scheduler state: %w", err)
	}
	if len(scheds) == 0 {
		return nil, fmt.Errorf("core: scheduler state carries no schedules")
	}
	if len(st.baseSlots) == 0 {
		return nil, fmt.Errorf("core: scheduler state carries no base slots")
	}
	for i, sw := range scheds {
		s, err := leader.NewSchedule(sw.initialRound, sw.slots)
		if err != nil {
			return nil, fmt.Errorf("core: scheduler state schedule %d: %w", i, err)
		}
		if i == 0 {
			st.history = leader.NewHistory(s)
		} else if err := st.history.Append(s); err != nil {
			return nil, fmt.Errorf("core: scheduler state schedule %d: %w", i, err)
		}
	}
	return st, nil
}

// MinRetainedRound implements leader.SchedulerState: the lowest round the
// scheduler may still read from the DAG (score scans reach back to the
// active epoch start). DAG pruning must stay strictly below this.
func (st *ManagerState) MinRetainedRound() types.Round {
	start := st.history.Active().InitialRound()
	if start == 0 {
		return 0
	}
	// Votes at the epoch's first round reference the previous round's leader.
	return start - 1
}

// LeaderAt implements leader.SchedulerState via the captured schedule suffix.
func (st *ManagerState) LeaderAt(round types.Round) types.ValidatorID {
	return st.history.LeaderAt(round)
}

// Epoch returns how many schedule switches preceded this state — the active
// schedule's ordinal (0 = initial schedule).
func (st *ManagerState) Epoch() int { return st.switches }

// EpochStartRound returns the active schedule's initial round.
func (st *ManagerState) EpochStartRound() types.Round {
	return st.history.Active().InitialRound()
}

// CommitsThisEpoch returns the epoch commit cursor at capture time.
func (st *ManagerState) CommitsThisEpoch() int { return st.commitsThisEpoch }

// Excluded returns the validators the latest swap scored out of the schedule
// (shared slice; do not mutate). Empty before the first switch.
func (st *ManagerState) Excluded() []types.ValidatorID { return st.excluded }

// Scores returns the reputation scores that drove the latest schedule switch
// (shared map; do not mutate). Empty before the first switch.
func (st *ManagerState) Scores() Scores { return st.epochScores }

// ExportState implements leader.Scheduler: a copy of the Manager's state.
// The schedule history, base slots and latest swap outcome are never written
// in place (a switch installs fresh ones), so the export shares them; only
// the Shoal scores, which OnAnchorOrdered updates in place, are copied.
//
//hammerlint:deterministic
func (m *Manager) ExportState() leader.SchedulerState {
	st := m.st
	st.shoalScores = m.st.shoalScores.Clone()
	return &st
}

// RestoreState implements leader.Scheduler: it adopts a decoded export as the
// Manager's state. On a decode error the Manager is left untouched. After a
// successful restore the Manager resumes exactly where the exporting node
// stood right after the snapshot's last commit, so driving both with the same
// subsequent anchor sequence yields bit-equal schedules (Proposition 1).
func (m *Manager) RestoreState(data []byte) error {
	st, err := DecodeManagerState(data)
	if err != nil {
		return err
	}
	m.st = *st
	return nil
}

// FastForwardTo implements leader.Scheduler. The engine calls it only after
// RestoreState re-established the schedule the snapshot was cut under, and
// the restored cursor already sits at the snapshot's last ordered anchor — so
// this is normally a no-op. Defensively, a jump past the restored cursor
// advances it without assigning skip penalties: the gap's ordering history
// was never observed, and guessing penalties for it would break Schedule
// Agreement.
func (m *Manager) FastForwardTo(round types.Round) {
	if m.st.haveLastOrderedAnchor && round <= m.st.lastOrderedAnchor {
		return
	}
	m.st.lastOrderedAnchor = round
	m.st.haveLastOrderedAnchor = true
}
