package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"hammerhead"
)

// simSpec is one simulated scenario, handed to a child process as JSON. The
// child is this same binary: running the simulator in its own process lets
// the parent account CPU and peak memory exactly as it does for validators.
type simSpec struct {
	HammerHead bool    `json:"hammerhead"`
	N          int     `json:"n"`
	Faults     int     `json:"faults"`
	Load       float64 `json:"load"`
	VirtualS   int     `json:"virtual_s"`
	WarmupS    int     `json:"warmup_s"`
	Seed       int64   `json:"seed"`
}

// simOut is what the child reports for one scenario, read off the facade's
// ExperimentResult.
type simOut struct {
	P50Ms, P95Ms     float64
	Samples          int
	ThroughputTxS    float64
	Executed         uint64
	LeaderTimeouts   uint64
	SkippedAnchors   uint64
	ScheduleSwitches int
	Excluded         int
	RootsAgree       bool
	RootsCompared    int
}

// simChild runs the scenarios it reads from specJSON and prints one simOut
// per scenario. It touches the system only through the root facade.
func simChild(specJSON string) error {
	var specs []simSpec
	if err := json.Unmarshal([]byte(specJSON), &specs); err != nil {
		return fmt.Errorf("sim child: %w", err)
	}
	outs := make([]simOut, 0, len(specs))
	for _, sp := range specs {
		mech := hammerhead.Bullshark
		if sp.HammerHead {
			mech = hammerhead.HammerHead
		}
		sc := hammerhead.NewScenario(mech, sp.N, sp.Faults, sp.Load)
		sc.Seed = sp.Seed
		sc.Duration = time.Duration(sp.VirtualS) * time.Second
		sc.Warmup = time.Duration(sp.WarmupS) * time.Second
		sc.Execution = true
		r, err := hammerhead.RunExperiment(sc)
		if err != nil {
			return fmt.Errorf("sim child: %s: %w", sc.Name, err)
		}
		outs = append(outs, simOut{
			P50Ms: ms(r.Latency.P50), P95Ms: ms(r.Latency.P95), Samples: r.Latency.Count,
			ThroughputTxS: r.ThroughputTxPerSec, Executed: r.Executed,
			LeaderTimeouts: r.LeaderTimeouts, SkippedAnchors: r.SkippedAnchors,
			ScheduleSwitches: r.ScheduleSwitches, Excluded: len(r.Excluded),
			RootsAgree: r.StateRootsAgree, RootsCompared: r.StateRootsCompared,
		})
	}
	return json.NewEncoder(os.Stdout).Encode(outs)
}

// simUsage is a finished child's resource bill.
type simUsage struct {
	cpuS   float64
	rssMB  float64
	spawnS float64 // spawn to exit
}

func runSimChild(specs []simSpec) ([]simOut, simUsage, error) {
	var u simUsage
	self, err := os.Executable()
	if err != nil {
		return nil, u, err
	}
	spec, err := json.Marshal(specs)
	if err != nil {
		return nil, u, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(self, "-sim-child", string(spec))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// The simulator is one event loop in virtual time; a second P only adds
	// a concurrent garbage collector whose share of the work depends on wall
	// timing. Pinned to one, equal seeds cost equal CPU to within a few
	// percent instead of ten.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, u, fmt.Errorf("simulation child: %v\n%s", err, stderr.String())
	}
	u.spawnS = time.Since(t0).Seconds()
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, u, fmt.Errorf("simulation child: no resource usage on this platform")
	}
	u.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	var outs []simOut
	if err := json.Unmarshal(stdout.Bytes(), &outs); err != nil || len(outs) != len(specs) {
		return nil, u, fmt.Errorf("simulation child: unreadable output (%v): %s", err, stdout.String())
	}
	return outs, u, nil
}

// runSim executes sim-faults: round-robin and HammerHead, each at a load
// both sustain (latency axis) and at one beyond round-robin's capacity under
// faults (throughput axis). Results repeat exactly for equal seeds; only
// set-up time, CPU and memory are wall-clock measurements.
func runSim(opt runOptions) (*result, error) {
	res := newResult()
	n := opt.simN
	faults := (n - 1) / 3
	virtual := opt.seconds * simVirtualPerSecond
	// The first half is warm-up. The paper's scenario excludes a third, but
	// with some seeds the reputation schedule needs up to half of the 120
	// virtual seconds to shed the last crashed leader: of ten seeds, four still
	// had a leader timeout after 40 s (p95 3.2 to 7.7 s against 2.2 s), none
	// after 60 s.
	spec := func(hh bool, load float64) simSpec {
		return simSpec{HammerHead: hh, N: n, Faults: faults, Load: load,
			VirtualS: virtual, WarmupS: virtual / 2, Seed: opt.seed}
	}
	const lowLoad, highLoad = 1000, 3000

	// Set-up: a child builds the committee, its keys and the network, and
	// simulates one second. More would not be set-up any more, and would make
	// it depend on the seed: how much there is to simulate under faults
	// depends on where the seed put the crashed leaders (2 virtual seconds
	// already cost 0.07 s with one seed and 0.12 s with another). The traced
	// run reports no set-up time.
	if !opt.traced {
		first := spec(true, lowLoad)
		first.VirtualS, first.WarmupS = 1, 0
		var setups []float64
		for rep := 0; rep < simSetupRepeats; rep++ {
			_, u, err := runSimChild([]simSpec{first})
			if err != nil {
				return nil, err
			}
			setups = append(setups, u.spawnS)
		}
		res.Metrics["setup_s"] = median(setups)
		res.Samples["setup_s"] = len(setups)
	}

	// One child per load level, side by side: the two are independent and
	// the box has at least two cores. Equal seeds give equal results;
	// -compare checks that across sets.
	levels := [][]simSpec{
		{spec(false, lowLoad), spec(true, lowLoad)},
		{spec(false, highLoad), spec(true, highLoad)},
	}
	type childResult struct {
		outs []simOut
		u    simUsage
		err  error
	}
	results := make([]childResult, len(levels))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range levels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			r.outs, r.u, r.err = runSimChild(levels[i])
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	var outs []simOut
	var u simUsage
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		outs = append(outs, r.outs...)
		u.cpuS += r.u.cpuS
		u.rssMB += r.u.rssMB
	}
	rrLow, hhLow, rrHigh, hhHigh := outs[0], outs[1], outs[2], outs[3]

	m := res.Metrics
	m["commit_p50_ms"] = hhLow.P50Ms
	m["commit_p95_ms"] = hhLow.P95Ms
	res.Samples["commit_ms"] = hhLow.Samples
	m["throughput_tx_s"] = hhHigh.ThroughputTxS
	var executed uint64
	for _, o := range outs {
		executed += o.Executed
	}
	if executed == 0 || hhLow.P50Ms == 0 || rrHigh.ThroughputTxS == 0 {
		return nil, fmt.Errorf("sim-faults: a scenario committed nothing: %+v", outs)
	}
	m["system.cpu_us_per_tx"] = u.cpuS * 1e6 / float64(executed)
	m["peak_rss_mb"] = u.rssMB

	m["rr.commit_p50_ms"] = rrLow.P50Ms
	m["rr.throughput_tx_s"] = rrHigh.ThroughputTxS
	m["sim.latency_gain_vs_rr"] = rrLow.P50Ms / hhLow.P50Ms
	m["sim.throughput_gain_vs_rr"] = hhHigh.ThroughputTxS / rrHigh.ThroughputTxS
	m["engine.leader_timeouts"] = float64(hhLow.LeaderTimeouts)
	m["bullshark.skipped_anchors"] = float64(hhLow.SkippedAnchors)
	m["core.schedule_switches"] = float64(hhLow.ScheduleSwitches)
	m["core.excluded"] = float64(hhLow.Excluded)
	m["rr.engine.leader_timeouts"] = float64(rrLow.LeaderTimeouts)
	m["rr.bullshark.skipped_anchors"] = float64(rrLow.SkippedAnchors)
	m["rr.core.schedule_switches"] = float64(rrLow.ScheduleSwitches)
	m["rr.core.excluded"] = float64(rrLow.Excluded)
	m["simnet.virtual_s_per_wall_s"] = float64(len(outs)*virtual) / wall

	// Operations are the cross-validator chained-root comparisons; the
	// paper's direction of effect is an output check too.
	for i, o := range outs {
		res.Attempted += max(o.RootsCompared, 1)
		if !o.RootsAgree || o.RootsCompared < 2 {
			res.Failed += max(o.RootsCompared, 1)
			res.fail("scenario %d: chained state roots disagree or were not comparable (%d compared)", i, o.RootsCompared)
		}
	}
	// Until its first schedule switch HammerHead is round-robin, so a run too
	// short to switch can show no effect either way.
	switch {
	case hhLow.ScheduleSwitches == 0:
		res.note("no schedule switch in %d virtual seconds: HammerHead and round-robin coincide", virtual)
	case m["sim.latency_gain_vs_rr"] <= 1:
		res.fail("HammerHead p50 %.0f ms is not below round-robin's %.0f ms under faults", hhLow.P50Ms, rrLow.P50Ms)
	case m["sim.throughput_gain_vs_rr"] <= 1:
		res.fail("HammerHead throughput %.0f tx/s is not above round-robin's %.0f tx/s under faults", hhHigh.ThroughputTxS, rrHigh.ThroughputTxS)
	}
	return res, nil
}
