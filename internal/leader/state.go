package leader

import "hammerhead/internal/types"

// SchedulerState is an immutable, point-in-time export of a scheduler's
// state — everything a recovered validator needs to resume leader resolution
// exactly where a live node stood. HammerHead's is the schedule suffix still
// covering retained rounds, the epoch cursor and any partially accumulated
// scores; the round-robin baseline's is the baseline itself, which encodes to
// nothing. Exports ride inside execution checkpoints (and therefore in
// storage.SnapshotStore records), so a validator installing a beyond-horizon
// snapshot re-establishes the exact schedule the committee computed instead
// of being unable to follow the jump.
type SchedulerState interface {
	// Encode serializes the state into a versioned, deterministic byte form
	// suitable for embedding in an execution snapshot. Equal states encode to
	// equal bytes (score maps are sorted), so snapshot payloads stay
	// reproducible across validators.
	Encode() ([]byte, error)
	// MinRetainedRound mirrors the live scheduler's retention floor at
	// capture time: the lowest round the restored scheduler may still need to
	// read from the DAG. Snapshot floors are clamped so installs never prune
	// past it.
	MinRetainedRound() types.Round
	// LeaderAt resolves the leader of an anchor round under the captured
	// schedule history (NoValidator for odd rounds or rounds the export no
	// longer covers).
	LeaderAt(round types.Round) types.ValidatorID
}
