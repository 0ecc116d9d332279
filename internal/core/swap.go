package core

import (
	"sort"

	"hammerhead/internal/types"
)

// SwapDecision is the outcome of one schedule recomputation. The Manager
// keeps the latest one's Scores and Bad in its state for observability.
type SwapDecision struct {
	// Scores are the reputation points the decision was computed from.
	Scores Scores
	// Bad lists the validators whose slots were taken (lowest scores,
	// at most the swap budget by stake), ascending by ID.
	Bad []types.ValidatorID
	// Good lists the validators who received those slots (highest scores,
	// |Good| == |Bad|), ascending by ID.
	Good []types.ValidatorID
}

// computeSwap implements the paper's schedule recomputation: select B (the
// lowest scorers, at most maxSwapStake by stake) and G (equally many top
// scorers, disjoint from B), then rebuild the slot cycle by replacing each
// slot held by a B member with G members round-robin.
//
// The input slots are not mutated; the returned slice is fresh.
func computeSwap(c *types.Committee, slots []types.ValidatorID, scores Scores, maxSwapStake types.Stake) ([]types.ValidatorID, SwapDecision) {
	ranked := rankAscending(c, scores)

	// B: greedy ascending by score while total stake fits the budget.
	bad := make(map[types.ValidatorID]bool)
	var badStake types.Stake
	var badList []types.ValidatorID
	for _, r := range ranked {
		if badStake+r.stake > maxSwapStake {
			continue
		}
		bad[r.id] = true
		badStake += r.stake
		badList = append(badList, r.id)
	}

	// G: descending by score with ties still resolved by ascending ID, same
	// count as B, never a member of B.
	descending := append([]rankedValidator(nil), ranked...)
	sort.Slice(descending, func(i, j int) bool {
		if descending[i].score != descending[j].score {
			return descending[i].score > descending[j].score
		}
		return descending[i].id < descending[j].id
	})
	var goodList []types.ValidatorID
	for _, r := range descending {
		if len(goodList) == len(badList) {
			break
		}
		if bad[r.id] {
			continue
		}
		goodList = append(goodList, r.id)
	}
	// If the committee is too small to find |B| replacements, trim B: a slot
	// must always be replaced by a distinct validator.
	badList = badList[:min(len(badList), len(goodList))]
	bad = make(map[types.ValidatorID]bool, len(badList))
	for _, id := range badList {
		bad[id] = true
	}

	newSlots := make([]types.ValidatorID, len(slots))
	gi := 0
	for i, owner := range slots {
		if bad[owner] && len(goodList) > 0 {
			newSlots[i] = goodList[gi%len(goodList)]
			gi++
		} else {
			newSlots[i] = owner
		}
	}

	decision := SwapDecision{
		Scores: scores.Clone(),
		Bad:    types.SortValidatorIDs(append([]types.ValidatorID(nil), badList...)),
		Good:   types.SortValidatorIDs(append([]types.ValidatorID(nil), goodList...)),
	}
	return newSlots, decision
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
