package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// benchArgs is the command line bench/ launches every validator with
// (bench/cluster.go, plus the traced run's flags and serve-readmix's node
// flags from bench/spec.go), pointed at committee file committee.
func benchArgs(dir, committee string) []string {
	return []string{
		"-committee", committee, "-id", "0",
		"-key", filepath.Join(dir, "validator-0.key"),
		"-wal", filepath.Join(dir, "v0.wal"), "-execution",
		"-rpc-addr", "127.0.0.1:0", "-rpc-lanes", "4", "-log-format", "json",
		"-trace", "-trace-slots", "524288",
		"-metrics-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-checkpoint-certs", "-checkpoint-interval", "2",
	}
}

// TestRunAcceptsBenchFlags: every flag the benchmark passes still parses, so
// run gets as far as loading the committee file — a missing one is the
// error, not the command line.
func TestRunAcceptsBenchFlags(t *testing.T) {
	dir := t.TempDir()
	err := run(benchArgs(dir, filepath.Join(dir, "missing.json")))
	if err == nil {
		t.Fatal("run succeeded without a committee file")
	}
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "genesis: reading") {
		t.Fatalf("run error = %v, want the genesis load error for the missing committee file", err)
	}
}

// TestRunRefusesRemovedFlags: the verification-pool and mempool-shard flags
// are gone, and passing one is a flag error before anything is loaded.
func TestRunRefusesRemovedFlags(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range []string{"-verify-workers", "-mempool-shards"} {
		err := run(append(benchArgs(dir, filepath.Join(dir, "missing.json")), flag, "2"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Fatalf("run with %s 2: error = %v, want it refused as an unknown flag", flag, err)
		}
	}
}
