package experiment

import (
	"testing"
	"time"

	"hammerhead/internal/engine"
)

func TestSummarizeLatencies(t *testing.T) {
	if s := SummarizeLatencies(nil); s.Count != 0 || s.String() != "no samples" {
		t.Fatalf("empty summary = %+v", s)
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := SummarizeLatencies(samples)
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Fatalf("P95 = %v, want 95ms", s.P95)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("Max = %v", s.Max)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("Mean = %v, want 50.5ms", s.Mean)
	}
}

func TestScenarioValidate(t *testing.T) {
	ok := NewScenario(HammerHead, 10, 3, 100)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Faults = 4 // > f for n=10
	if err := bad.Validate(); err == nil {
		t.Fatal("faults beyond tolerance must be rejected")
	}
	bad = ok
	bad.Mechanism = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown mechanism must be rejected")
	}
	bad = ok
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero duration must be rejected")
	}
}

func TestBatchCapScalesInversely(t *testing.T) {
	// Per-header caps must shrink with committee size so total consensus
	// capacity stays put.
	c10, c100 := batchCapFor(10), batchCapFor(100)
	if c10 <= c100 {
		t.Fatalf("cap(10)=%d must exceed cap(100)=%d", c10, c100)
	}
	total10 := float64(c10) * 10
	total100 := float64(c100) * 100
	ratio := total10 / total100
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("total capacity must be roughly size-independent, ratio=%.2f", ratio)
	}
}

func TestRunFaultlessSmall(t *testing.T) {
	s := NewScenario(HammerHead, 10, 0, 200)
	s.Duration = 30 * time.Second
	s.Warmup = 10 * time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faultless n=10: tput=%.0f tx/s latency{%s} commits=%d events=%d",
		res.ThroughputTxPerSec, res.Latency, res.Commits, res.SimEvents)
	if res.Executed == 0 {
		t.Fatal("no transactions executed")
	}
	// Open loop at 200 tx/s for 30s: expect most of it committed.
	if res.ThroughputTxPerSec < 150 {
		t.Fatalf("throughput %.0f tx/s, want >= 150 (offered 200)", res.ThroughputTxPerSec)
	}
	if res.Latency.Mean <= 0 || res.Latency.Mean > 6*time.Second {
		t.Fatalf("mean latency %v implausible", res.Latency.Mean)
	}
	if res.LeaderTimeouts != 0 {
		t.Fatalf("leader timeouts in faultless run: %d", res.LeaderTimeouts)
	}
}

func TestRunFaultyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	run := func(m Mechanism) Result {
		s := NewScenario(m, 10, 3, 300)
		s.Duration = 60 * time.Second
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s n=10 f=3: tput=%.0f latency{%s} skipped=%d timeouts=%d switches=%d excluded=%v",
			m, res.ThroughputTxPerSec, res.Latency, res.SkippedAnchors,
			res.LeaderTimeouts, res.ScheduleSwitches, res.Excluded)
		return res
	}
	bs := run(Bullshark)
	hh := run(HammerHead)

	if hh.ScheduleSwitches == 0 {
		t.Fatal("HammerHead never switched schedules")
	}
	if len(hh.Excluded) == 0 {
		t.Fatal("HammerHead excluded nobody despite 3 crashed validators")
	}
	for _, id := range hh.Excluded {
		if int(id) < 10-3 {
			t.Fatalf("excluded a live validator: %v", hh.Excluded)
		}
	}
	// The paper's C2: HammerHead improves latency materially under faults.
	if hh.Latency.Mean >= bs.Latency.Mean {
		t.Fatalf("HammerHead mean latency %v must beat Bullshark %v under faults",
			hh.Latency.Mean, bs.Latency.Mean)
	}
	// Fewer skipped anchors and (after the first epochs) fewer timeouts.
	if hh.SkippedAnchors >= bs.SkippedAnchors {
		t.Fatalf("skipped anchors: hh=%d bs=%d", hh.SkippedAnchors, bs.SkippedAnchors)
	}
}

// TestEngineConfigThreadsVerifySignatures: scenarios are crash-only unless
// VerifySignatures is set, and EngineConfig carries the switch through.
func TestEngineConfigThreadsVerifySignatures(t *testing.T) {
	s := NewScenario(HammerHead, 10, 0, 2000)
	if s.EngineConfig().VerifySignatures {
		t.Fatal("scenarios stay crash-only unless VerifySignatures is set")
	}
	s.VerifySignatures = true
	if !s.EngineConfig().VerifySignatures {
		t.Fatal("EngineConfig did not thread VerifySignatures")
	}
}

func TestCatchUpScenarioPreset(t *testing.T) {
	s := NewCatchUpScenario(HammerHead, 10, 2, 500)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.RecoverAt <= s.CrashAt || s.RecoverAt >= s.Duration {
		t.Fatalf("recovery window implausible: crash=%v recover=%v duration=%v",
			s.CrashAt, s.RecoverAt, s.Duration)
	}
	// The raised-GCDepthRounds workaround is gone: recovery beyond the
	// horizon goes through snapshot state-sync, so the preset must run at
	// the DEFAULT retention depth with execution enabled.
	if s.GCDepthRounds != 0 {
		t.Fatalf("catch-up preset must use the default GC depth, GCDepthRounds=%d", s.GCDepthRounds)
	}
	if !s.Execution {
		t.Fatal("catch-up preset must enable the execution subsystem")
	}
	if s.EngineConfig().GCDepth != engine.DefaultConfig().GCDepth {
		t.Fatalf("EngineConfig GCDepth = %d, want default %d",
			s.EngineConfig().GCDepth, engine.DefaultConfig().GCDepth)
	}
}

func TestRunCatchUpScenario(t *testing.T) {
	// A shrunk catch-up run end to end: the crashed validator recovers far
	// beyond the default GC horizon, rejoins via snapshot state-sync, and
	// every live validator ends on the same state root.
	s := NewCatchUpScenario(Bullshark, 4, 1, 300)
	// Shrink the run but keep the outage far past the default GC horizon
	// (~2.4 rounds/s geo cadence: a ~38s outage is ~90 rounds >> GCDepth 50).
	s.Duration = 60 * time.Second
	s.Warmup = 10 * time.Second
	s.CrashAt = 3 * time.Second
	s.RecoverAt = 42 * time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 || res.ThroughputTxPerSec <= 0 {
		t.Fatalf("catch-up run executed nothing: %+v", res)
	}
	if res.LastOrderedRound < 50 {
		t.Fatalf("committee barely progressed: last ordered round %d", res.LastOrderedRound)
	}
	if res.SnapshotInstalls < 1 {
		t.Fatalf("recovery at default GC depth requires a snapshot install: %+v", res)
	}
	if !res.StateRootsAgree || res.StateRootsCompared < 4 {
		t.Fatalf("state roots diverged (agree=%v compared=%d at seq %d)",
			res.StateRootsAgree, res.StateRootsCompared, res.MinAppliedSeq)
	}
}

func TestRunSnapshotCatchUpScenario(t *testing.T) {
	s := NewSnapshotCatchUpScenario(Bullshark, 4, 1, 300)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Duration = 60 * time.Second
	s.Warmup = 10 * time.Second
	s.CrashAt = 3 * time.Second
	s.RecoverAt = s.Duration * 7 / 10
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotInstalls < 1 {
		t.Fatalf("snapshot catch-up scenario installed no snapshots: %+v", res)
	}
	if !res.StateRootsAgree || res.MinAppliedSeq == 0 || res.StateRootsCompared < 4 {
		t.Fatalf("state roots diverged (agree=%v compared=%d at seq %d)",
			res.StateRootsAgree, res.StateRootsCompared, res.MinAppliedSeq)
	}
	if res.Executed == 0 {
		t.Fatal("snapshot catch-up run executed nothing")
	}
}
