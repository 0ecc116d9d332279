# Developer entry points. CI's focused steps (.github/workflows/ci.yml) run
# `make <target>`, so a target's commands and the comment above it are the one
# place they are written down; the pinned linter versions below are repeated
# in ci.yml and must move in lockstep.

# Pinned linter versions — bump deliberately, in lockstep with ci.yml.
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test race race-core fmt lint hammerlint staticcheck vulncheck knobs bench-smoke sim-mem checkpoint-bytes sig-once ring-bytes pacing crash-restart catch-up apply-path checkpoint-phase clean

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# race-core is CI's "Consensus core (race)" step: the packages whose
# concurrency tests only mean something under the race detector (DAG,
# committer, scheduler, engine, trie and executor, gateway ring, replica,
# validator assembly, mempool lanes, TCP transport, and the node, whose loop
# goroutine delivers commits beside the status mirrors the gateway reads).
race-core:
	go test -race ./internal/dag/ ./internal/bullshark/ ./internal/core/ ./internal/types/ ./internal/engine/ ./internal/merkle/ ./internal/execution/ ./internal/rpc/ ./internal/replica/ ./internal/validator/ ./internal/mempool/ ./internal/transport/ ./internal/node/

# fmt rewrites every file gofmt would change; CI fails when there is one.
fmt:
	gofmt -w .

# lint runs every static check. hammerlint (the repo's own vettool; see
# tools/hammerlint and the README's "Static analysis & invariants" section)
# always runs; staticcheck and govulncheck run when installed and otherwise
# print the pinned install command — they need network to fetch, which
# offline dev containers may not have.
lint: hammerlint staticcheck vulncheck

hammerlint:
	go build -o bin/hammerlint ./tools/hammerlint
	go vet -vettool=bin/hammerlint ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# knobs prints the settable-value count (the exported fields of the
# configuration structs, the tunable constructor parameters and the
# hammerhead-node flags) and lists the fields and parameters that no non-test
# code outside their package sets (see tools/knobs). A report, not a gate:
# cite its count instead of counting by hand.
knobs:
	go run ./tools/knobs

# bench-smoke checks the black-box benchmark (bench/, a module of its own, so
# `go test ./...` at the root does not reach it): BENCHMARK.json matches the
# runner's spec and a 2-second serve-steady run is correct; and bench/probes,
# which imports hammerhead/internal/* behind a build tag, still vets and
# builds (the benchmark itself only reports `probes.built 0` when it does
# not). `bash bench/run.sh` is the benchmark itself.
bench-smoke:
	cd bench && go vet -tags benchprobes ./probes && go build -tags benchprobes -o /dev/null ./probes
	cd bench && go test ./...

# sim-mem is CI's "Retained memory and pinned results" step: the retained
# heap of a paper-sized fault run (n=50, 16 crashed) stays under its budgets
# halfway and at the end, a small fault run reproduces its pinned
# commit-stream hash, a serving validator's gateway and executor retain no
# more after 1000 commits than after 200, the DAG's tag-scan lookups
# answer as the digest index they replaced did, and a burst of full batches
# drains at certification pace and, with a validator stalled, loses and
# duplicates nothing, and under light load rounds go in periods of four
# (batch-round headers one floor apart) while a crashed validator keeps every
# round on the floor; and the HammerHead scheduler, through 1000 one-commit
# epochs, holds no more schedules than its export (two) and exports with as
# many allocations as after 10.
sim-mem:
	go test -run 'TestFaultRunRetainedHeap|TestFaultRunResultsPinned' ./internal/experiment/
	go test -run '^TestManagerStateStaysBounded$$' ./internal/core/
	go test -run TestServingRetainedHeapFollowsState ./internal/rpc/
	go test -run TestDigestLookupsMatchIndexModel ./internal/dag/
	go test -run 'TestBurstDrainsAtCertificationPace|TestBurstSurvivesAStalledValidator' ./internal/simnet/
	go test -run 'TestVoteRoundFollowsCertification|TestVoteRoundWaitsForACrashedValidator' ./internal/simnet/

# checkpoint-bytes is CI's "Checkpoint bytes (merge ≡ full encode)" step: the
# checkpoint writer merges the writes since the previous checkpoint into its
# cached bytes, and every blob saved or served must still be the full
# encoding of its state (through forced checkpoints, a failed save and an
# install), as the inline oracle's and the golden blobs are.
checkpoint-bytes:
	go test -count=3 -run '^(TestCheckpointMergeMatchesFullEncode|TestCheckpointChainRule|TestCheckpointsMatchInlineOracle|TestGoldenKVSnapshot|TestGoldenSnapshotBlob)$$' ./internal/execution/

# sig-once is CI's "Signatures checked once (race)" step: checking each
# signature once — certificate votes a validator already verified or cast,
# its own certificate, a client's repeated checkpoint certificate — decides
# every header, vote and certificate as verifying everything does; a
# certificate with more votes than members or a repeated voter is refused
# before any public-key work; and the table the pre-verify workers share
# with the engine stays within its bound under the race detector. The
# engine's own pre-verify stage is the one check of header, vote and
# certificate signatures, whether OnMessage runs it inline or a runtime runs
# Check before OnChecked, and checkpoint shares and certificates are verified
# even when VerifySignatures is off. A message
# is immutable once the engine sends it: every kind the stage checks reports
# its signatures, every output message is sealed, the stage's verdict reaches
# the engine with the message however much the table evicted meanwhile, a
# shared certificate keeps its forged vote while each recipient stores a copy
# without it, and the in-process transport and LocalCluster share one message
# among recipients under the race detector. A certificate the validator's DAG
# holds, or one below its floor, costs the stage no verification.
sig-once:
	go test -race -count=3 -run '^(TestCheckOnceMatchesReference|TestVoteFloodCostsAtMostN|TestOwnCertificateNotReverified|TestKnownSigsSharedAcrossWorkers)$$' ./internal/engine/
	go test -race -count=3 -run '^(TestVerifierChecksEachCertificateOnce|TestVerifierRemembersTheLastFew)$$' ./pkg/client/
	go test -race -count=3 -run '^(TestSigCountFollowsNeedsCheck|TestOutputMessagesAreSealed|TestCheckedVerdictOutlivesTable)$$' ./internal/engine/
	go test -race -count=3 -run '^TestSharedCertificateIsNotStripped$$' ./internal/simnet/
	go test -race -count=3 -run '^TestChannel' ./internal/transport/
	go test -race -count=3 -run '^TestLocalClusterEndToEnd$$' .
	go test -race -count=3 -run '^(TestHeldCertificatesCostNoVerification|TestCheckpointForgeriesRefusedWithoutVerifySignatures)$$' ./internal/engine/

# pacing is CI's "Header pacing by period (race)" step: a whole round ≡ 1, 2
# or 3 (mod 4) is left at once, a whole round ≡ 0 at the period timer that
# f+1 stake of batch-round headers armed (the per-round floor does not open
# it), a round missing a certificate at the per-round floor, and f+1 stake
# ahead or a full batch opens the gate (the engine's pacing tests,
# TestPeriodGate's table among them); in simulation, batch-round headers
# come one floor apart and commit p50 and p95 stay within half a floor and a
# floor plus three round trips, also when the validators boot 60 to 80 ms
# apart, a crashed validator keeps every round on the floor, and stalled
# validators lose and duplicate nothing through bursts. An own header's
# certificate waits for its record, and the validator for the certificate.
pacing:
	go test -race -count=3 -run '^(TestPacingGateOpensAtValidityThreshold|TestLaggingValidatorCertifiesBeforeAdvancing|TestCatchUpJumpCarriesAbandonedBatch|TestFullBatchOpensPacingGate|TestBatchFilledBetweenEventsIsProposed|TestFullBatchKeepsRoundConditions|TestWholeAnchorRoundSendsVoteAtOnce|TestWaveFloorCountsFromTheAnchorHeader|TestPeriodGate|TestFullBatchKeepsLeaderWait)$$' ./internal/engine/
	go test -race -count=3 -run '^(TestShortRoundsSurviveAStalledValidator|TestVoteRoundFollowsCertification|TestPeriodsAgreeAfterStaggeredStarts|TestVoteRoundWaitsForACrashedValidator|TestBurstDrainsAtCertificationPace|TestBurstSurvivesAStalledValidator)$$' ./internal/simnet/
	go test -race -count=3 -run '^TestOwnCertificateWaitsForTheRecord$$' ./internal/engine/

# crash-restart is CI's "Crash-restart on the real log (race)" step: simnet
# kills and restarts validators from their own storage.WAL and snapshot
# files — the whole committee, one validator, one killed mid-proposal, one
# after its log was compacted at two or more checkpoints, one whose log's
# last record is torn at a seeded offset — and a log or snapshot directory
# that storage creates is named durably (and a reopen syncs nothing); a
# validator is not live, and records nothing, until Init or Recover (a
# certificate a node takes before Start is not written beside recovery).
# A restart replays its log without verifying a signature, intact or torn;
# a node run with a WAL and execution resumes from the checkpoints beside
# its compacted log, alone and as a whole committee (LocalCluster). A validator
# killed after its header went out and before the header's record was durable
# never certified it, and after the restart no slot holds two certificates. A
# LocalCluster given only a WAL directory compacts validator 0's log against
# a checkpoint saved beside it within two checkpoint intervals. A checkpoint
# the recovering validator's scheduler cannot restore (a round-robin one under
# HammerHead) fails the restart by its seq, with the executor untouched.
crash-restart:
	go test -race -count=3 -run '^(TestFullCommitteeKillRestartConverges|TestHammerHeadFullCommitteeKillRestartConverges|TestPartialKillRestartRejoinsLiveCommittee|TestKillRestartRestoresVotedRoundMark|TestKillRestartRecoversFromCompactedLog|TestKillRestartTrimsATornTail)$$' ./internal/simnet/
	go test -race -count=3 -run '^(TestOpenWALSyncsDirOnCreate|TestNewSnapshotStoreSyncsCreatedDirs)$$' ./internal/storage/
	go test -race -count=3 -run '^(TestInitOpensTheLogAndGoesLive|TestLogCompactsAtTheCheckpointFloor|TestLogReopensAfterAFailedCompaction|TestRecoverRefusesACheckpointItsSchedulerCannotRestore)$$' ./internal/validator/
	go test -race -count=3 -run '^TestNodeRecordsNothingBeforeStart$$' ./internal/node/
	go test -race -count=3 -run '^TestKillRestartReplaysItsLogUnverified$$' ./internal/simnet/
	go test -race -count=3 -run '^TestRestartResumesFromItsOwnCompactedRecord$$' ./internal/node/
	go test -race -count=3 -run '^TestLocalClusterRestartResumesFromItsRecords$$' .
	go test -race -count=3 -run '^TestKillBeforeRecordCertifiesOnce$$' ./internal/simnet/
	go test -race -count=3 -run '^TestLocalClusterCompactsItsLogs$$' .

# catch-up is CI's "One catch-up pull (race)" step: a lagging or restarted
# validator catches up, and fetches a missing parent, through one round pull.
# A certificate that arrives before its parents waits in its slot of the
# round window and pulls from the round below it, the first pull never held
# back; a far one, or a flood of them, pends nothing and buys one pull per
# resync interval, and pending state goes with its rounds; a committee whose
# round does not fit in one reply is refused. The crash-rejoin handshake is
# that pull broadcast from the highest DAG round and retried by the progress
# watchdog, and completes at a write quorum of replies to any pull (a
# repeated one does not count, an empty one does); every round pull is
# answered once, naming its round, with a checkpoint offer when the pulled
# rounds lie below the responder's floor, and a snapshot fetch starts only
# from an offer beyond the GC horizon, pinned to its round; a stalled fetch
# rotates through every peer, keeping that round; retired kind bytes decode
# as errors. In simulation, a validator partitioned past the GC horizon
# catches up by snapshot (round-robin and HammerHead), a restarted one
# rejoins the live committee, ghost-parent churn keeps pending state bounded,
# and a validator whose certificates are withheld keeps up by pulling.
catch-up:
	go test -race -count=3 -run '^(TestRejoinHandshakeCompletesAtQuorum|TestRejoinBelowQuorumRetries|TestRejoinAdoptsSurvivingOwnCertificate|TestRejoinLoneValidatorCompletesImmediately|TestRejoinResponseCarriesCheckpointOffer|TestRejoinOfferNearFrontierIgnored|TestRestoreProposalRetransmitsIdenticalHeader|TestRoundRequestServesFrontier|TestRoundRequestServedFromIndex|TestProgressTimerPullsWhenStuck|TestCatchUpJumpSkipsToFrontier|TestSyncPeerSelection|TestRetiredKindsDecodeAsErrors)$$' ./internal/engine/
	go test -race -count=3 -run '^(TestFirstPullIsNotHeldBack|TestNewRejectsBadParams|TestPendingCertTriggersSyncRequest|TestCertRequestWorkIsBounded|TestRejoinCountsParentPullReply|TestRejoinAdoptsPendingOwnCertificate|TestPendingStateGarbageCollected|TestCertFloorDropsStaleCertificates|TestPendingEvictionBoundsFlood)$$' ./internal/engine/
	go test -race -count=3 -run '^(TestBeyondHorizonTriggersSnapshotRequest|TestSnapshotFetchAssemblesChunksAndFastForwards|TestSnapshotResponderWithoutCheckpoint|TestSnapshotOlderThanAppliedRoundRejected|TestCorruptSnapshotChunkRejectsInstall|TestSnapshotChunkCRCRejectedOnReceipt|TestStalledSnapshotFetchRotatesThroughEveryPeer)$$' ./internal/engine/
	go test -race -count=3 -run '^(TestSnapshotCatchUpConverges|TestHammerHeadSnapshotCatchUpConverges|TestPartialKillRestartRejoinsLiveCommittee|TestGhostParentChurnKeepsPendingBounded|TestWithholdCertsDegradesToResync)$$' ./internal/simnet/

# ring-bytes is CI's "Commit history holds what it counts (race)" step: the
# gateway's resume ring packs each commit's payloads into one block and must
# serve the stream the ring of whole events served, byte for byte, plain and
# ?full=1; what it charges its budget must be what it keeps alive, with no
# network frame pinned behind a payload; and the WAL compaction, which copies
# through its buffer, must write the bytes the per-record copy wrote and make
# the rename durable before the session reopens the log.
ring-bytes:
	go test -race -count=3 -run '^(TestRingStreamMatchesOracle|TestRingHoldsWhatItCounts|TestRingAgreesWithCountOnlyModel|TestRingByteBudget|TestRingCountStillBinds|TestStreamResumeMatchesModel|TestFullSubscriberThatKeepsUpNeverGaps)$$' ./internal/rpc/
	go test -race -count=3 -run '^(TestCompactMatchesPerRecordOracle|TestCompactToSyncsDirAfterRename|TestCompactDropsOldRounds|TestCompactToShrinksOpenWALAndKeepsAppending|TestCompactToAllocatesCopyBuffersOnly|TestCompactIgnoresStaleTempFile|TestCompactKeepsProposalHighWaterMark|TestGoldenWALRecords)$$' ./internal/storage/

# apply-path is CI's "One apply path (race)" step: the executor applies on
# the goroutine that delivers the commit and writes checkpoints inline or on
# its one checkpoint goroutine, with the same bytes (the inline oracle, the
# full encoding, the same roots, digest and count started or not, Close's
# inline final checkpoint); an install adopts a snapshot that hashes to its
# digest and a rejected one leaves the live ledger and the certified reads
# alone, as does one whose scheduler state the scheduler refuses, while the
# install restores the scheduler from the state it accepts; and the node
# tests that apply on the commit goroutine.
apply-path:
	go test -race -count=3 -run '^(TestCheckpointsMatchInlineOracle|TestCheckpointMergeMatchesFullEncode|TestExecutorAsyncModeMatchesSync|TestExecutorSubmitBeforeStartIsDroppedAtClose|TestExecutorInstallVerifiesAndAdopts|TestRejectedInstallLeavesTheLedgerAlone|TestInstallFromWireRequiresSchedulerState)$$' ./internal/execution/
	go test -race -count=3 -run '^(TestNodesExecuteAndConverge|TestCheckpointDrivenWALCompactionAndRestart|TestTraceCoversFullCommitPath)$$' ./internal/node/

# checkpoint-phase is CI's "Checkpoints where the period waits (race)" step:
# the cut rule (a checkpoint at the commit that ends a period's fast phase,
# at most interval+1 commits apart, the same seqs on every validator and
# after a clean restart), the executor's checkpoint tests that follow it,
# four certifying simulated validators healthy and with one crashed, a
# restarted node whose certificates advance with the committee's, and the
# resume window that keeps every commit above the older of the two newest
# certified seqs.
checkpoint-phase:
	go test -race -count=3 -run '^(TestCheckpointCutRule|TestRestartKeepsTheCheckpointGrid|TestExecutorCheckpointsAtInterval|TestExecutorAsyncModeMatchesSync|TestNoFrozenViewsWithoutCertification|TestCheckpointsMatchInlineOracle|TestWriteNeverReplacesNewerCheckpoint|TestBlockedWriterStallsNothing)$$' ./internal/execution/
	go test -race -count=3 -run '^TestCheckpointsLandWhereThePeriodWaits$$' ./internal/simnet/
	go test -race -count=3 -run '^TestCleanRestartKeepsTheCheckpointGrid$$' ./internal/node/
	go test -race -count=3 -run '^(TestRingKeepsWhatAReplicaBootstrapsFrom|TestFullSubscriberThatKeepsUpNeverGaps)$$' ./internal/rpc/

clean:
	rm -rf bin hammerlint
