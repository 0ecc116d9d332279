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
// the node has run: at most historyDepth commits and at most historyBytes of
// transaction IDs, payloads and 4-byte payload offsets — the payloads copied
// out of the frames they arrived in, so the bytes counted are the bytes held.
// The byte budget never evicts the newest commit, nor any commit above the
// older of the two newest certified checkpoint seqs: a replica bootstrapping
// from either certified snapshot resumes the stream right after it. A
// subscriber behind the window gets a gap event and continues from the oldest
// retained commit (a replica re-bootstraps); one that stops reading is
// disconnected after streamWriteTimeout. Subscribers copy the ring out
// streamBatch events at a time, so none holds the gateway's lock — which the
// node's commit path takes in ObserveCommit — for the length of the ring.
//
// The wire types are defined in hammerhead/pkg/rpcapi — an importable
// package, so external consumers of pkg/client can name them — and the
// gateway and client both name them there, pinned to one definition.
package rpc
