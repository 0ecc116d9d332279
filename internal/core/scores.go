// Package core implements HammerHead, the paper's contribution: a
// reputation-based dynamic leader scheduler for DAG BFT.
//
// The scheduler is driven exclusively by the committer's totally-ordered
// anchor sequence, so its state — reputation scores, epoch boundaries and
// the schedule history — is a deterministic function of the committed
// prefix. That is the paper's key safety argument (Proposition 1, Schedule
// Agreement): validators may commit the same anchor at very different times,
// but because they commit the same anchors with identical causal histories,
// they derive identical schedules for identical round intervals.
package core

import (
	"sort"

	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// ScoringRule selects how reputation scores are computed.
type ScoringRule uint8

const (
	// ScoringVotes is the paper's rule: a validator earns one point per
	// committed vertex of theirs that votes for (links to) the previous
	// round's leader. Crashed validators stop voting and sink to the bottom;
	// Byzantine validators that withhold votes for honest leaders penalize
	// only themselves.
	ScoringVotes ScoringRule = iota + 1
	// ScoringShoal is the rule Shoal's implementation uses, provided as an
	// ablation: committed leaders gain a point, skipped leaders lose one.
	ScoringShoal
)

// String implements fmt.Stringer.
func (r ScoringRule) String() string {
	switch r {
	case ScoringVotes:
		return "votes"
	case ScoringShoal:
		return "shoal"
	default:
		return "unknown"
	}
}

// Scores maps validators to reputation points. Missing entries are zero.
type Scores map[types.ValidatorID]int64

// Clone returns a deep copy.
func (s Scores) Clone() Scores {
	out := make(Scores, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// computeVoteScores implements the paper's deterministic scoring rule over
// the causal history of the epoch-ending anchor: for every vertex u in
// history(anchor) with round in [epochStart, anchor.Round], u.source earns a
// point if u links to the leader vertex of round u.Round-1 (leaders resolved
// retroactively through the schedule history). The anchor's own commit votes
// live at anchor.Round+1, outside its history, which realizes the paper's
// "up to but excluding the committed leader".
//
// All validators observe the same causal history for the same committed
// anchor (paper Observation 2), so these scores are identical everywhere.
func computeVoteScores(d *dag.DAG, history *leader.History, anchor *dag.Vertex, epochStart types.Round) Scores {
	scores := make(Scores, d.Committee().Size())
	// The history arrives round by round, so the leader vertex its voters are
	// tested against is resolved once per round, not once per voter.
	var leaderVertex *dag.Vertex
	var leaderFor types.Round
	for _, u := range d.CausalHistory(anchor, epochStart, nil) {
		if u.Round == 0 || u.Round.IsAnchorRound() {
			continue // only odd-round vertices vote: leaders sit on even rounds
		}
		if u.Round != leaderFor {
			leaderFor, leaderVertex = u.Round, nil
			if leaderID := history.LeaderAt(u.Round - 1); leaderID != types.NoValidator {
				leaderVertex, _ = d.Get(u.Round-1, leaderID)
			}
		}
		if d.HasEdge(u, leaderVertex) {
			scores[u.Source]++
		}
	}
	return scores
}

// rankedValidator pairs a validator with its score for deterministic
// ordering.
type rankedValidator struct {
	id    types.ValidatorID
	score int64
	stake types.Stake
}

// rankAscending returns all committee members ordered by (score asc, ID asc)
// — the candidates for the "bad" set B. Ties are resolved by validator ID,
// the paper's "any ties ... are deterministically resolved".
func rankAscending(c *types.Committee, scores Scores) []rankedValidator {
	out := make([]rankedValidator, 0, c.Size())
	for _, a := range c.Authorities() {
		out = append(out, rankedValidator{id: a.ID, score: scores[a.ID], stake: a.Stake})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score < out[j].score
		}
		return out[i].id < out[j].id
	})
	return out
}
