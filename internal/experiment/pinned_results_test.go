package experiment

import (
	"testing"
	"time"
)

// TestFaultRunResultsPinned holds a small fault run to constants recorded at
// the commit before the consensus core moved from digest-keyed maps to slot
// arrays and bitsets (PR 17). The simulator is deterministic, so a refactor
// of the DAG, the committer or the scheduler that is behaviour-preserving
// reproduces every number to the last digit; one that reorders a single
// commit changes StateRoot, the executors' hash chain over every commit's
// (index, anchor, ordered vertex digests). A deliberate protocol change
// re-records the constants and says so.
func TestFaultRunResultsPinned(t *testing.T) {
	want := map[Mechanism]struct {
		root           string
		seq            uint64
		p50, p95       time.Duration
		executed       uint64
		leaderTimeouts uint64
		switches       int
	}{
		Bullshark: {
			root: "5f0078c5e6e98d0d3d8e54e273757a860dda08556226ea4d5fe88e6106fac822", seq: 27,
			p50: 1387084148, p95: 2403237161, executed: 9230, leaderTimeouts: 12, switches: 0,
		},
		HammerHead: {
			root: "51a91c8ea6b0f581f585c941b2dafc533f0f343ce3edeb2b6ff3f34da519c72e", seq: 49,
			p50: 873786165, p95: 1133164726, executed: 9532, leaderTimeouts: 5, switches: 4,
		},
	}
	for _, m := range []Mechanism{Bullshark, HammerHead} {
		s := NewScenario(m, 10, 3, 500)
		s.Duration = 30 * time.Second
		s.Warmup = 10 * time.Second
		s.Seed = 1
		s.Execution = true
		// Short rounds and a shallow retention window, so 30 virtual seconds
		// cross several schedule epochs and prune the DAG more than once.
		s.MinRoundDelay = 100 * time.Millisecond
		s.LeaderTimeout = time.Second
		s.GCDepthRounds = 8
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.StateRootsAgree || res.StateRootsCompared != 7 {
			t.Fatalf("%s: roots agree=%v over %d validators, want all 7 live ones",
				m, res.StateRootsAgree, res.StateRootsCompared)
		}
		w := want[m]
		if got := res.StateRoot.Hex(); got != w.root || res.MinAppliedSeq != w.seq {
			t.Errorf("%s: commit stream root %s at seq %d, want %s at %d",
				m, got, res.MinAppliedSeq, w.root, w.seq)
		}
		if res.Latency.P50 != w.p50 || res.Latency.P95 != w.p95 {
			t.Errorf("%s: latency p50/p95 = %d/%d ns, want %d/%d",
				m, res.Latency.P50, res.Latency.P95, w.p50, w.p95)
		}
		if res.Executed != w.executed || res.LeaderTimeouts != w.leaderTimeouts || res.ScheduleSwitches != w.switches {
			t.Errorf("%s: executed=%d leader timeouts=%d schedule switches=%d, want %d/%d/%d",
				m, res.Executed, res.LeaderTimeouts, res.ScheduleSwitches,
				w.executed, w.leaderTimeouts, w.switches)
		}
	}
}
