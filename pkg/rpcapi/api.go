// Package rpcapi defines the wire types of the validator's client gateway
// (internal/rpc) — the JSON bodies of POST /v1/tx, GET /v1/kv, GET
// /v1/status and the SSE commit-stream events. They live outside internal/
// so external consumers of hammerhead/pkg/client can name them; the gateway
// aliases them, so the two can never drift.
//
// The gateway itself:
// an HTTP/JSON API for transaction submission, committed-state reads,
// commit-stream subscription and node status. It is the first surface through
// which anything outside the validator process reaches the consensus core —
// the serving layer the ROADMAP's "heavy traffic from millions of users"
// north star needs.
//
// Endpoints:
//
//	POST /v1/tx        — submit a batch of transactions (fair-admission lanes
//	                     keyed by client ID; 429 + per-tx errors on lane
//	                     backpressure)
//	GET  /v1/kv/{key}  — read the executor's KV ledger: value + write version
//	                     + applied commit seq + chained state root, one
//	                     consistent cursor; ?proof=1 adds a Merkle
//	                     inclusion/exclusion proof plus the quorum checkpoint
//	                     certificate for zero-trust client-side verification
//	GET  /v1/commits   — Server-Sent Events stream of committed transactions,
//	                     resumable from a sequence number (?from= or
//	                     Last-Event-ID); ?full=1 carries payloads + commit
//	                     digests so replicas can re-execute
//	GET  /v1/checkpoint — the latest quorum checkpoint certificate (2f+1
//	                     signatures over the checkpoint tuple)
//	GET  /v1/snapshot  — the latest certified snapshot blob (replica
//	                     bootstrap)
//	GET  /v1/status    — round, frontier, rejoining, snapshot floor, mempool
//	                     lane depths; replica:true on the read tier
//	GET  /v1/trace/{txid} — a transaction's commit-path waterfall: one
//	                     wall-clock timestamp per lifecycle stage (admitted,
//	                     proposed, cert_formed, ordered, durable, streamed,
//	                     applied), recorded by the serving node's tracer
//	GET  /metrics      — Prometheus text exposition (when a registry is
//	                     attached)
//
// The wire types below are shared with pkg/client, so the Go client library
// and the gateway can never drift apart.
package rpcapi

// SubmitTx is one transaction in a submission batch. Payload is opaque to
// consensus; the built-in KV state machine executes execution.PutOp /
// execution.DeleteOp encodings and counts everything else as an opaque op.
type SubmitTx struct {
	// ID is the client-chosen transaction identifier, echoed in commit-stream
	// events so clients can match submissions to finality. 0 lets the gateway
	// assign one.
	ID      uint64 `json:"id,omitempty"`
	Payload []byte `json:"payload"`
}

// SubmitRequest is the POST /v1/tx body.
type SubmitRequest struct {
	// Client identifies the submitter for fair admission (lane selection).
	// Empty falls back to the X-Client-ID header, then the remote address.
	Client string     `json:"client,omitempty"`
	Txs    []SubmitTx `json:"txs"`
}

// SubmitResponse reports per-batch admission results.
type SubmitResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Errors lists the rejected transactions by batch index ("mempool: pool
	// is full" under lane backpressure — the client should back off).
	Errors []SubmitError `json:"errors,omitempty"`
	// Lane is the admission lane the client's transactions were routed to.
	Lane int `json:"lane"`
}

// SubmitError names one rejected transaction.
type SubmitError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// KVResponse is the GET /v1/kv/{key} body: a point read plus the consistency
// cursor it was taken under. Two validators returning the same (applied_seq,
// state_root) pair served reads from identical applied histories.
type KVResponse struct {
	Key     []byte `json:"key"`
	Value   []byte `json:"value,omitempty"`
	Found   bool   `json:"found"`
	Version uint64 `json:"version,omitempty"`
	// AppliedSeq and StateRoot are the executor's cursor at read time.
	AppliedSeq   uint64 `json:"applied_seq"`
	AppliedRound uint64 `json:"applied_round"`
	StateRoot    string `json:"state_root"`
}

// CheckpointSig is one validator's signature inside a CheckpointCert.
type CheckpointSig struct {
	Validator uint32 `json:"validator"`
	Signature []byte `json:"signature"`
}

// CheckpointCert is the JSON form of a quorum checkpoint certificate
// (internal/checkpoint.Certificate): 2f+1 validator signatures over one
// checkpoint tuple. Served on GET /v1/checkpoint and embedded in proof
// responses; digests are hex encoded.
type CheckpointCert struct {
	Round       uint64          `json:"round"`
	CommitSeq   uint64          `json:"commit_seq"`
	StateRoot   string          `json:"state_root"`
	StateDigest string          `json:"state_digest"`
	SchedDigest string          `json:"sched_digest"`
	Sigs        []CheckpointSig `json:"sigs"`
}

// ProofStep is one inner node on a Merkle proof's root-to-leaf path: the
// split-bit index and the hex digest of the sibling subtree.
type ProofStep struct {
	Bit     uint16 `json:"bit"`
	Sibling string `json:"sibling"`
}

// ProofLeaf is the entry a Merkle proof path terminates at. For an inclusion
// proof its Key equals the requested key; for an exclusion proof it is the
// unrelated entry the key's descent lands on (absent entirely when the
// certified state is empty).
type ProofLeaf struct {
	Key     []byte `json:"key"`
	Value   []byte `json:"value,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// KVProofResponse is the GET /v1/kv/{key}?proof=1 body: a proof-carrying
// read against the serving node's last quorum-certified checkpoint. A
// verifying client MUST ignore the convenience Value/Found fields and instead
// fold Steps+Leaf to a root, combine it with the state counters
// (execution.StateDigestFrom) and compare against Cert.StateDigest after
// checking Cert's signatures — then nothing the serving node says is trusted.
type KVProofResponse struct {
	Key   []byte `json:"key"`
	Value []byte `json:"value,omitempty"`
	Found bool   `json:"found"`
	// Leaf and Steps are the Merkle inclusion/exclusion proof (root → leaf).
	Leaf  *ProofLeaf  `json:"leaf,omitempty"`
	Steps []ProofStep `json:"steps,omitempty"`
	// StateVersion and StateOpaque are the certified state's op counters,
	// which bind the Merkle root into the certified state digest.
	StateVersion uint64 `json:"state_version"`
	StateOpaque  uint64 `json:"state_opaque"`
	// Cert is the quorum certificate the proof verifies against.
	Cert CheckpointCert `json:"cert"`
}

// LaneStatus is one admission lane's view in /v1/status.
type LaneStatus struct {
	Lane      int    `json:"lane"`
	Depth     int    `json:"depth"`
	Cap       int    `json:"cap"`
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Drained   uint64 `json:"drained"`
}

// ValidatorScore is one validator's reputation score in /v1/status.
type ValidatorScore struct {
	Validator uint32 `json:"validator"`
	Score     int64  `json:"score"`
}

// StatusResponse is the GET /v1/status body.
type StatusResponse struct {
	Validator uint32 `json:"validator"`
	// Replica is true when the serving node is a non-voting read replica
	// (validator-only fields like Round stay zero; Validator echoes the
	// validator the replica redirects submissions to, if any).
	Replica bool `json:"replica,omitempty"`
	// Round is the engine's current proposing round; HighestRound the DAG
	// frontier; LastOrdered the committer's ordering floor.
	Round        uint64 `json:"round"`
	HighestRound uint64 `json:"highest_round"`
	LastOrdered  uint64 `json:"last_ordered_round"`
	// Rejoining is true while the crash-rejoin handshake is still gathering.
	Rejoining bool `json:"rejoining"`
	// Execution cursor: how far the executor (or a replica's re-execution)
	// has applied.
	AppliedSeq   uint64 `json:"applied_seq"`
	AppliedRound uint64 `json:"applied_round"`
	StateRoot    string `json:"state_root,omitempty"`
	// SnapshotFloor is the latest checkpoint's retention floor (0 = no
	// checkpoint yet).
	SnapshotFloor uint64 `json:"snapshot_floor"`
	// Commits counts ordered sub-DAGs delivered since boot (replayed ones
	// included).
	Commits uint64 `json:"commits"`
	// HistoryOldestSeq is the oldest commit sequence GET /v1/commits can still
	// resume from (0 before the first commit): a subscriber whose last seen
	// sequence is below HistoryOldestSeq-1 gets a gap event on reconnect.
	HistoryOldestSeq uint64 `json:"history_oldest_seq"`
	// Leader-scheduling state. ScheduleEpoch counts schedule switches (always
	// 0 under the round-robin baseline, which never switches);
	// ScheduleStartRound is the active schedule's first round; CurrentLeader
	// is the leader of the next anchor round at or after Round.
	// SchedulerScores and ExcludedValidators report the reputation scores and
	// exclusions that drove the latest switch (HammerHead only).
	ScheduleEpoch      uint64           `json:"schedule_epoch"`
	ScheduleStartRound uint64           `json:"schedule_start_round"`
	CurrentLeader      uint32           `json:"current_leader"`
	SchedulerScores    []ValidatorScore `json:"scheduler_scores,omitempty"`
	ExcludedValidators []uint32         `json:"excluded_validators,omitempty"`
	// Mempool occupancy and per-lane admission state.
	MempoolPending  int          `json:"mempool_pending"`
	MempoolCapacity int          `json:"mempool_capacity"`
	Lanes           []LaneStatus `json:"lanes,omitempty"`
}

// CommitEvent is one SSE event on GET /v1/commits: an ordered sub-DAG's
// identity plus the IDs of the transactions it finalized. StateRoot is the
// executor's chained root at this sequence when already applied ("" while
// execution still trails the commit stream).
type CommitEvent struct {
	Seq       uint64   `json:"seq"`
	Round     uint64   `json:"round"`
	TxCount   int      `json:"tx_count"`
	TxIDs     []uint64 `json:"tx_ids,omitempty"`
	StateRoot string   `json:"state_root,omitempty"`
	// CommitDigest is the hex content address of the commit (sequence, anchor
	// and ordered vertex set — see execution.CommitDigestOf). Replicas chain
	// H(prev, digest) over it to reproduce the executor's state root.
	CommitDigest string `json:"commit_digest,omitempty"`
	// Payloads carries the commit's full transaction payloads in application
	// order. Only populated on GET /v1/commits?full=1 — the re-execution feed
	// read replicas tail; plain subscribers get the lighter event.
	Payloads [][]byte `json:"payloads,omitempty"`
}

// GapEvent is sent on the commit stream when the requested resume point has
// aged out of the gateway's retained history: the client missed the range
// (from, oldest) and the stream continues from Oldest.
type GapEvent struct {
	// Oldest is the first sequence still retained; streaming resumes there.
	Oldest uint64 `json:"oldest"`
}

// TraceStage is one recorded lifecycle stage in a GET /v1/trace/{txid}
// waterfall. Stages arrive in causal order; TimeNanos is the serving
// node's wall clock (UnixNano) when that stage fired.
type TraceStage struct {
	Stage     string `json:"stage"`
	TimeNanos int64  `json:"time_unix_nanos"`
}

// TraceResponse is the GET /v1/trace/{txid} body. Stages lists only the
// stages this node recorded: the validator that admitted the transaction
// holds the full waterfall (admitted → … → streamed/applied, all from its
// own clock); its peers hold the commit-side suffix (ordered onward).
// Replayed commits after a restart record nothing — a recovered node never
// fabricates pre-crash timestamps.
type TraceResponse struct {
	TxID   uint64       `json:"tx_id"`
	Stages []TraceStage `json:"stages"`
	// Complete is true when every stage through the end of this node's
	// commit path, applied, was recorded with monotonically non-decreasing
	// timestamps.
	Complete bool `json:"complete"`
}
