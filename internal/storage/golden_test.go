package storage

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"hammerhead/internal/engine"
)

// TestGoldenWALRecords pins the bytes of the log format (record tag 02): a
// fixed certificate record followed by a fixed proposal record, framing
// included, must be written as exactly these bytes, and the bytes must replay
// to records that are written back as the same bytes. The constant was
// recorded before the gob record generations were deleted and did not move
// with them; a format revision moves it once, on purpose, together with the
// version tag.
func TestGoldenWALRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cert *engine.Certificate, prop *engine.Header) string {
		t.Helper()
		w, err := OpenWAL(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(cert); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendProposal(prop); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(raw)
	}
	cert, prop := testCert(7, 2), testProposal(8, 2)
	if got := write("written", cert, prop); got != goldenWAL {
		t.Fatalf("encoding moved:\n got %s\nwant %s", got, goldenWAL)
	}

	var gotCert *engine.Certificate
	var gotProp *engine.Header
	valid, err := ReplayPrefixRecords(filepath.Join(dir, "written"), func(c *engine.Certificate) error {
		gotCert = c
		return nil
	}, func(h *engine.Header) error {
		gotProp = h
		return nil
	})
	if err != nil || valid != int64(len(goldenWAL)/2) || gotCert == nil || gotProp == nil {
		t.Fatalf("golden log replayed %d of %d bytes (err %v)", valid, len(goldenWAL)/2, err)
	}
	if gotCert.Digest() != cert.Digest() || len(gotCert.Votes) != len(cert.Votes) || gotProp.Digest() != prop.Digest() {
		t.Fatal("golden records decoded to different values")
	}
	if write("rewritten", gotCert, gotProp) != goldenWAL {
		t.Fatal("decode(golden) does not re-encode to golden")
	}
}

const goldenWAL = "0000005e269ee58e020100000000000000070000000201f4c9b02771220de12cb0ba2a2282acf171567d4bd7a4c89ead4b7d745c2b4742010100000000000002be00000000000000000170000000000000000003736967020000000002763000000001027631000000254f1b4dae0202000000000000000800000002000000000000000000000c70726f706f73616c2d736967"
