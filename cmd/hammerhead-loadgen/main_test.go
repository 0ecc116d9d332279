package main

import (
	"strings"
	"testing"
	"time"
)

// ciSmokeArgs is the command line CI's loadgen smoke step runs.
var ciSmokeArgs = []string{"-selfcluster", "4", "-trace", "-replicas", "1", "-duration", "10s", "-rate", "400", "-scheme", "insecure"}

// TestParseFlagsAcceptsCISmoke: CI's smoke flag set parses into the scenario
// it asks for, with the checks on.
func TestParseFlagsAcceptsCISmoke(t *testing.T) {
	o, err := parseFlags(ciSmokeArgs)
	if err != nil {
		t.Fatalf("CI's smoke flags: %v", err)
	}
	s := o.scenario
	if s.N != 4 || !s.Trace || s.Replicas != 1 || s.Duration != 10*time.Second || s.RateTxPerSec != 400 ||
		s.Scheme != "insecure" || len(s.Endpoints) != 0 || !o.assert {
		t.Fatalf("CI's smoke flags parsed to %+v (assert %v)", s, o.assert)
	}
}

// TestParseFlagsRefusesAmbiguousTargets: a run loads either an in-process
// cluster or given gateways, so both, or neither, is refused, as are replicas
// beside real gateways.
func TestParseFlagsRefusesAmbiguousTargets(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-selfcluster", "4", "-targets", "127.0.0.1:9440"}, "mutually exclusive"},
		{[]string{"-rate", "400"}, "one of -targets or -selfcluster is required"},
		{[]string{"-targets", "127.0.0.1:9440", "-replicas", "1"}, "-replicas requires -selfcluster"},
	} {
		if _, err := parseFlags(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) = %v, want an error saying %q", tc.args, err, tc.want)
		}
	}
	o, err := parseFlags([]string{"-targets", "127.0.0.1:9440, 127.0.0.1:9441"})
	if err != nil || len(o.scenario.Endpoints) != 2 || o.scenario.Endpoints[1] != "127.0.0.1:9441" || o.assert {
		t.Fatalf("two targets parsed to %v (assert %v, err %v)", o.scenario.Endpoints, o.assert, err)
	}
}
