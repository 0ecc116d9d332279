// Package rpc is the client-facing gateway embedded in each validator node:
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
//	                     consistent cursor
//	GET  /v1/commits   — Server-Sent Events stream of committed transactions,
//	                     resumable from a sequence number (?from= or
//	                     Last-Event-ID) while it is inside the resume window
//	GET  /v1/status    — round, frontier, rejoining, snapshot floor, oldest
//	                     resumable commit, mempool lane depths
//	GET  /v1/trace/{txid} — a transaction's commit-path waterfall (admitted →
//	                     proposed → cert_formed → ordered → durable →
//	                     streamed → applied), from the node's tracer
//	GET  /metrics      — Prometheus text exposition (when a registry is
//	                     attached)
//
// The resume window (commitRing) is bounded by what it holds, not by how long
// the node has run: at most Config.HistoryDepth commits and at most
// historyBytes of transaction IDs and payloads, but never fewer than the
// newest two checkpoint intervals of commits — what a replica needs between a
// certified snapshot and the live tail. A subscriber behind the window gets a
// gap event and continues from the oldest retained commit (a replica
// re-bootstraps); one that stops reading is disconnected after
// streamWriteTimeout. Subscribers copy the ring out streamBatch events at a
// time, so none holds the gateway's lock — which the node's commit path takes
// in ObserveCommit — for the length of the ring.
//
// The wire types are defined in hammerhead/pkg/rpcapi — an importable
// package, so external consumers of pkg/client can name them — and aliased
// here, keeping gateway and client pinned to one definition.
package rpc

import "hammerhead/pkg/rpcapi"

// Wire types, aliased from pkg/rpcapi (see that package for field docs).
type (
	// SubmitTx is one transaction in a submission batch.
	SubmitTx = rpcapi.SubmitTx
	// SubmitRequest is the POST /v1/tx body.
	SubmitRequest = rpcapi.SubmitRequest
	// SubmitResponse reports per-batch admission results.
	SubmitResponse = rpcapi.SubmitResponse
	// SubmitError names one rejected transaction.
	SubmitError = rpcapi.SubmitError
	// KVResponse is the GET /v1/kv/{key} body.
	KVResponse = rpcapi.KVResponse
	// KVProofResponse is the GET /v1/kv/{key}?proof=1 body.
	KVProofResponse = rpcapi.KVProofResponse
	// CheckpointCert is the GET /v1/checkpoint body.
	CheckpointCert = rpcapi.CheckpointCert
	// CheckpointSig is one validator signature inside a CheckpointCert.
	CheckpointSig = rpcapi.CheckpointSig
	// ProofStep is one inner node on a wire Merkle proof path.
	ProofStep = rpcapi.ProofStep
	// ProofLeaf is the terminal entry of a wire Merkle proof.
	ProofLeaf = rpcapi.ProofLeaf
	// LaneStatus is one admission lane's view in /v1/status.
	LaneStatus = rpcapi.LaneStatus
	// ValidatorScore is one validator's reputation score in /v1/status.
	ValidatorScore = rpcapi.ValidatorScore
	// StatusResponse is the GET /v1/status body.
	StatusResponse = rpcapi.StatusResponse
	// CommitEvent is one SSE event on GET /v1/commits.
	CommitEvent = rpcapi.CommitEvent
	// GapEvent announces that a resume point aged out of retained history.
	GapEvent = rpcapi.GapEvent
	// TraceResponse is the GET /v1/trace/{txid} body.
	TraceResponse = rpcapi.TraceResponse
	// TraceStage is one recorded lifecycle stage in a TraceResponse.
	TraceStage = rpcapi.TraceStage
)
