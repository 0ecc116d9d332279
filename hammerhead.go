// Package hammerhead is the public API of this repository: a from-scratch Go
// implementation of HammerHead — reputation-based dynamic leader scheduling
// for DAG BFT (Tsimos, Kichidis, Sonnino, Kokoris-Kogias; ICDCS 2024) — on
// top of a complete Narwhal/Bullshark consensus stack.
//
// Two entry points cover the common uses:
//
//   - StartLocalCluster boots an in-process committee over channel
//     transports — the quickest way to see transactions reach finality.
//   - RunExperiment executes a simulated deployment (13-region geo network,
//     crash faults, open-loop load) and returns the latency/throughput
//     measurements behind the paper's figures.
//
// A real validator over TCP is cmd/hammerhead-node (internal/node); its
// clients use pkg/client. The names below alias the internal packages, and
// each is here because something outside this file uses it.
package hammerhead

import (
	"hammerhead/internal/bullshark"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/experiment"
	"hammerhead/internal/metrics"
	"hammerhead/internal/node"
	"hammerhead/internal/types"
)

// ---- basic types ----

// Core vocabulary, aliased from internal/types.
type (
	// Transaction is a client transaction.
	Transaction = types.Transaction
	// ValidatorID identifies a committee member.
	ValidatorID = types.ValidatorID
	// Stake is voting power.
	Stake = types.Stake
	// Committee is the validator set with stake-weighted quorum arithmetic.
	Committee = types.Committee
	// Authority describes one committee member.
	Authority = types.Authority
	// CommittedSubDAG is one commit: an anchor and its newly ordered causal
	// history.
	CommittedSubDAG = bullshark.CommittedSubDAG
)

// NewCommittee builds a committee from explicit authorities.
var NewCommittee = types.NewCommittee

// NewEqualStakeCommittee builds an n-validator, equal-stake committee (the
// paper's evaluation configuration).
var NewEqualStakeCommittee = types.NewEqualStakeCommittee

// ---- scheduling ----

// SchedulerConfig parameterizes HammerHead's reputation scheduler: how many
// commits end a schedule epoch and the scoring rule. The swap budget is
// always f, and the initial schedule's seed is the node's ScheduleSeed.
type SchedulerConfig = core.Config

// ScoringVotes is the paper's scoring rule: one point per committed vote for
// the previous round's leader.
const ScoringVotes = core.ScoringVotes

// DefaultSchedulerConfig matches the paper's evaluation settings.
var DefaultSchedulerConfig = core.DefaultConfig

// ---- engine / node ----

// Node is a running validator on the real runtime.
type Node = node.Node

// DefaultEngineConfig returns production-shaped engine defaults.
var DefaultEngineConfig = engine.DefaultConfig

// NewMetricsRegistry creates an empty metrics registry.
var NewMetricsRegistry = metrics.NewRegistry

// GenerateKeys derives the committee's key pairs deterministically from a
// cluster seed: element i belongs to validator i. The second return value
// lists every validator's public key in ID order.
func GenerateKeys(schemeName string, clusterSeed [32]byte, n int) ([]crypto.KeyPair, []crypto.PublicKey, error) {
	scheme, err := crypto.SchemeByName(schemeName)
	if err != nil {
		return nil, nil, err
	}
	return crypto.CommitteeKeys(scheme, clusterSeed, n)
}

// PutOp encodes a put as a transaction for the built-in key-value ledger.
var PutOp = execution.PutOp

// ---- experiments / simulation ----

// Experiment machinery, aliased from internal/experiment.
type (
	// Scenario describes one simulated experiment.
	Scenario = experiment.Scenario
	// ExperimentResult is a scenario's measurements.
	ExperimentResult = experiment.Result
	// Mechanism selects Bullshark or HammerHead.
	Mechanism = experiment.Mechanism
)

// Mechanisms, re-exported.
const (
	// Bullshark is the static round-robin baseline.
	Bullshark = experiment.Bullshark
	// HammerHead is the reputation-based dynamic schedule.
	HammerHead = experiment.HammerHead
)

// NewScenario returns a calibrated scenario mirroring the paper's setup.
var NewScenario = experiment.NewScenario

// NewSnapshotCatchUpScenario returns the snapshot state-sync stress
// scenario: a longer outage with frequent checkpoints, guaranteeing the
// recovering validators must install a snapshot to rejoin.
var NewSnapshotCatchUpScenario = experiment.NewSnapshotCatchUpScenario

// NewCrashRestartScenario returns the correlated crash-restart scenario: the
// whole committee is SIGKILLed mid-run and restarted from WALs, recovering
// through the crash-rejoin handshake. The headline measurement is
// ExperimentResult.TimeToFirstPostCrashCommit.
var NewCrashRestartScenario = experiment.NewCrashRestartScenario

// NewByzantineLeaderScenario returns the faulty-leader showcase (one
// crashed, one selectively withholding, one lagging leader) comparing commit
// latency under round-robin vs reputation scheduling.
var NewByzantineLeaderScenario = experiment.NewByzantineLeaderScenario

// RunExperiment executes a scenario and returns its measurements.
var RunExperiment = experiment.Run
