package types

import (
	"errors"
	"fmt"
	"sort"
)

// Authority describes one committee member.
type Authority struct {
	// ID is the dense index of the validator in the committee.
	ID ValidatorID
	// Name is a human-readable label (e.g. "validator-7" or a region tag).
	Name string
	// Stake is the validator's voting power. Must be positive.
	Stake Stake
	// PublicKey is the validator's verification key (scheme-dependent).
	PublicKey []byte
	// Address is the network address for real-socket deployments
	// ("host:port"); empty in simulations.
	Address string
}

// Committee is the static validator set of an epoch together with its
// stake-weighted quorum arithmetic. The zero value is not usable; construct
// with NewCommittee.
//
// Thresholds follow the standard BFT model with n > 3f: writes (certificates)
// need QuorumThreshold (>= 2f+1 by stake) and commit votes need
// ValidityThreshold (>= f+1 by stake), where f = MaxFaultyStake.
type Committee struct {
	authorities []Authority
	totalStake  Stake
	maxFaulty   Stake
}

// ErrEmptyCommittee is returned when constructing a committee with no members.
var ErrEmptyCommittee = errors.New("types: committee must have at least one authority")

// NewCommittee validates and builds a committee. Authorities must be provided
// in ID order 0..n-1 with positive stake.
func NewCommittee(authorities []Authority) (*Committee, error) {
	if len(authorities) == 0 {
		return nil, ErrEmptyCommittee
	}
	list := make([]Authority, len(authorities))
	copy(list, authorities)
	var total Stake
	for i := range list {
		if list[i].ID != ValidatorID(i) {
			return nil, fmt.Errorf("types: authority at index %d has ID %s, want v%d", i, list[i].ID, i)
		}
		if list[i].Stake == 0 {
			return nil, fmt.Errorf("types: authority %s has zero stake", list[i].ID)
		}
		total += list[i].Stake
	}
	return &Committee{
		authorities: list,
		totalStake:  total,
		maxFaulty:   (total - 1) / 3,
	}, nil
}

// NewEqualStakeCommittee builds an n-member committee where every validator
// holds one unit of stake — the configuration used in the paper's evaluation.
func NewEqualStakeCommittee(n int) (*Committee, error) {
	authorities := make([]Authority, n)
	for i := range authorities {
		authorities[i] = Authority{
			ID:    ValidatorID(i),
			Name:  fmt.Sprintf("validator-%d", i),
			Stake: 1,
		}
	}
	return NewCommittee(authorities)
}

// Size returns the number of validators.
func (c *Committee) Size() int { return len(c.authorities) }

// TotalStake returns the sum of all stakes.
func (c *Committee) TotalStake() Stake { return c.totalStake }

// MaxFaultyStake returns f, the largest stake the adversary may control
// (f < n/3 in stake units).
func (c *Committee) MaxFaultyStake() Stake { return c.maxFaulty }

// QuorumThreshold returns the minimum stake of a write quorum (2f+1
// equivalent): totalStake - maxFaulty.
func (c *Committee) QuorumThreshold() Stake { return c.totalStake - c.maxFaulty }

// ValidityThreshold returns the minimum stake guaranteeing at least one
// honest member (f+1 equivalent).
func (c *Committee) ValidityThreshold() Stake { return c.maxFaulty + 1 }

// Authority returns the authority with the given ID.
func (c *Committee) Authority(id ValidatorID) (Authority, bool) {
	if int(id) >= len(c.authorities) {
		return Authority{}, false
	}
	return c.authorities[id], true
}

// Stake returns the stake of the given validator, or zero if unknown.
func (c *Committee) Stake(id ValidatorID) Stake {
	if int(id) >= len(c.authorities) {
		return 0
	}
	return c.authorities[id].Stake
}

// Authorities returns a copy of the authority list in ID order.
func (c *Committee) Authorities() []Authority {
	out := make([]Authority, len(c.authorities))
	copy(out, c.authorities)
	return out
}

// ValidatorIDs returns all validator IDs in ascending order.
func (c *Committee) ValidatorIDs() []ValidatorID {
	out := make([]ValidatorID, len(c.authorities))
	for i := range out {
		out[i] = ValidatorID(i)
	}
	return out
}

// StakeOf sums the stake of the given set of validators, counting each
// member once even if repeated.
func (c *Committee) StakeOf(ids []ValidatorID) Stake {
	acc := NewStakeAccumulator(c)
	for _, id := range ids {
		acc.Add(id)
	}
	return acc.Total()
}

// StakeAccumulator incrementally tracks distinct-validator stake until a
// threshold is reached: a ValidatorSet of who was counted plus the running
// total, so Add is a bit test. The zero value is not usable; use
// NewStakeAccumulator.
type StakeAccumulator struct {
	committee *Committee
	seen      ValidatorSet
	total     Stake
}

// NewStakeAccumulator returns an empty accumulator over the committee.
func NewStakeAccumulator(c *Committee) *StakeAccumulator {
	return &StakeAccumulator{
		committee: c,
		seen:      NewValidatorSet(c.Size()),
	}
}

// Add records the validator's stake (idempotently) and returns the new total.
// An ID outside the committee holds no stake and is not recorded.
func (a *StakeAccumulator) Add(id ValidatorID) Stake {
	if int(id) >= len(a.committee.authorities) || a.seen.Has(id) {
		return a.total
	}
	a.seen.Add(id)
	a.total += a.committee.authorities[id].Stake
	return a.total
}

// Has reports whether the validator was recorded.
func (a *StakeAccumulator) Has(id ValidatorID) bool { return a.seen.Has(id) }

// Members returns the set of recorded validators: the accumulator's own, so
// it changes with the next Add or Reset.
func (a *StakeAccumulator) Members() ValidatorSet { return a.seen }

// Reset empties the accumulator for reuse.
func (a *StakeAccumulator) Reset() {
	a.seen.Clear()
	a.total = 0
}

// Total returns the accumulated stake.
func (a *StakeAccumulator) Total() Stake { return a.total }

// Count returns the number of distinct committee members recorded.
func (a *StakeAccumulator) Count() int { return a.seen.Len() }

// ReachedQuorum reports whether the accumulated stake meets QuorumThreshold.
func (a *StakeAccumulator) ReachedQuorum() bool {
	return a.total >= a.committee.QuorumThreshold()
}

// ReachedValidity reports whether the accumulated stake meets
// ValidityThreshold.
func (a *StakeAccumulator) ReachedValidity() bool {
	return a.total >= a.committee.ValidityThreshold()
}

// SortValidatorIDs sorts IDs ascending in place and returns the slice, for
// deterministic iteration over sets.
func SortValidatorIDs(ids []ValidatorID) []ValidatorID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
