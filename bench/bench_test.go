package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the tables in
// spec.go from drifting: the file is the runner's own rendering.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the runner's spec; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	if len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestChargeSamples(t *testing.T) {
	traces := `File: hammerhead-node
Type: cpu
-----------+-------------------------------------------------------
      20ms   crypto/sha256.block
             hammerhead/internal/types.HashBytes
             hammerhead/internal/merkle.leafHash
             hammerhead/internal/execution.(*KVState).Apply
-----------+-------------------------------------------------------
     1.50s   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
      10ms   hammerhead/internal/wire.(*Reader).Uvarint
             hammerhead/internal/engine.DecodeMessage
`
	by, total := chargeSamples(traces)
	if by["merkle"] != 0.02 || by["runtime"] != 1.5 || by["wire"] != 0.01 || by["execution"] != 0 {
		t.Fatalf("charged %v", by)
	}
	if total < 1.529 || total > 1.531 {
		t.Fatalf("total %v", total)
	}
}

// TestSmoke drives two seconds of serve-steady on the insecure scheme and a
// small sim-faults through the built binary, so a change that moves a pinned
// flag, endpoint or facade symbol fails here rather than in a benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns validator processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "hammerhead-benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the runner: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-workload", "serve-steady", "-seconds", "2", "-scheme", "insecure"},
		{"-workload", "sim-faults", "-seconds", "2", "-sim-n", "10"},
	} {
		cmd := exec.Command(bin, append([]string{"-root", root, "-seed", "7"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s\n%s", args, err, out, stderr.String())
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, out)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out)
		}
		for _, m := range endToEnd {
			if got, ok := res.Metrics[m.Name]; !ok || got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%v: metric %s = %+v (present %v), want a positive value in %s", args, m.Name, got, ok, m.Unit)
			}
		}
	}
}
