package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	seedA = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
	seedB = "1f1e1d1c1b1a191817161514131211100f0e0d0c0b0a09080706050403020100"
)

// generate runs keygen the way the benchmark does (n validators, the given
// seed) into a fresh directory and returns the files it wrote, by name.
func generate(t *testing.T, n int, seed string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	args := []string{"-n", fmt.Sprint(n), "-scheme", "ed25519", "-seed", seed, "-out", dir, "-log-level", "error"}
	if err := run(args); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	if len(files) != n+1 {
		t.Fatalf("wrote %d files, want committee.json and %d key files", len(files), n)
	}
	return files
}

// TestSeedDeterminesCommittee: a committee is a function of its seed — the
// same seed writes byte-identical committee and key files, another seed
// writes other keys.
func TestSeedDeterminesCommittee(t *testing.T) {
	first, again, other := generate(t, 4, seedA), generate(t, 4, seedA), generate(t, 4, seedB)
	for name, raw := range first {
		if !bytes.Equal(raw, again[name]) {
			t.Errorf("%s differs between two runs with the same seed", name)
		}
		if bytes.Equal(raw, other[name]) {
			t.Errorf("%s is the same under a different seed", name)
		}
	}
}

// TestRunRefusesBadArguments: an empty committee and a seed that is not 32
// bytes of hex are refused before anything is written.
func TestRunRefusesBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "committee size"},
		{[]string{"-seed", seedA[:62]}, "seed must be 32 bytes"},
		{[]string{"-seed", "zz" + seedA[2:]}, "seed must be 32 bytes"},
	} {
		dir := t.TempDir()
		err := run(append(tc.args, "-out", dir, "-log-level", "error"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error = %v, want one containing %q", tc.args, err, tc.want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("run %v wrote %d files before refusing", tc.args, len(entries))
		}
	}
}
