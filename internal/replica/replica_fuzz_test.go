package replica

import (
	"bytes"
	"encoding/json"
	"testing"

	"hammerhead/internal/execution"
	"hammerhead/pkg/rpcapi"
)

// FuzzReplicaCommitEvents feeds a replica — bootstrapped from the harness
// producer's certified snapshot, as it would be from a validator — a commit
// stream it has no reason to trust: newline-separated rpcapi.CommitEvent JSON,
// each event applied as it decodes. The producer's own events seed the corpus.
// Whatever arrives, the replica never panics; an event it refuses leaves
// AppliedSeq and ChainedRoot where they were, and one it takes advances them
// by exactly one commit; and the producer's certificate over a later sequence
// then either poisons the replica or finds its roots at that sequence equal
// to the producer's — it never promotes a view the certificate does not
// certify.
func FuzzReplicaCommitEvents(f *testing.F) {
	h := newHarness(f)
	h.commit(execution.PutOp([]byte("alpha"), []byte("1")))
	h.certify(f, 3)
	blob, ok := h.producer.CertifiedSnapshotBlob()
	if !ok {
		f.Fatal("producer serves no certified blob")
	}
	var honest []rpcapi.CommitEvent
	for _, p := range [][]byte{
		execution.PutOp([]byte("alpha"), []byte("2")),
		execution.DeleteOp([]byte("alpha")),
		execution.PutOp([]byte("beta"), []byte("3")),
	} {
		honest = append(honest, h.commit(p, []byte("opaque")))
	}
	cert, _ := h.certify(f, 3)
	stream := func(events ...rpcapi.CommitEvent) []byte {
		var b []byte
		for _, ev := range events {
			line, err := json.Marshal(ev)
			if err != nil {
				f.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		return b
	}
	tampered := honest[1]
	tampered.Payloads = [][]byte{execution.PutOp([]byte("alpha"), []byte("EVIL"))}
	f.Add(stream(honest...))
	f.Add(stream(honest[0], honest[0], honest[1], honest[2])) // a resumed stream's overlap
	f.Add(stream(honest[0], honest[2], honest[1]))            // a gap
	f.Add(stream(honest[0], honest[1]))                       // short of the certificate
	f.Add(stream(honest[0], tampered, honest[2]))             // a lie the certificate exposes
	f.Add([]byte(`{"seq":2,"round":4,"commit_digest":"00"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := h.newReplica(t)
		defer r.Close()
		if err := r.BootstrapFromBlob(blob); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var ev rpcapi.CommitEvent
			if dec.Decode(&ev) != nil {
				break
			}
			seq, root := r.AppliedSeq(), r.ChainedRoot()
			err := r.ApplyCommitEvent(ev)
			switch gotSeq := r.AppliedSeq(); {
			case err != nil && (gotSeq != seq || r.ChainedRoot() != root):
				t.Fatalf("refused event %d (%v) moved the replica from seq %d to %d", ev.Seq, err, seq, gotSeq)
			case err == nil && gotSeq != seq && (gotSeq != seq+1 || ev.Seq != gotSeq):
				t.Fatalf("event %d took the replica from seq %d to %d", ev.Seq, seq, gotSeq)
			case err == nil && gotSeq == seq && r.ChainedRoot() != root:
				t.Fatalf("event %d left seq %d but moved the chained root", ev.Seq, seq)
			}
		}

		certSeq := cert.Meta.CommitSeq
		_ = r.CrossCheck(cert)
		if r.Err() != nil {
			return // poisoned: it serves nothing
		}
		promoted, ok := r.Certificate()
		if !ok {
			t.Fatal("a healthy replica lost the certificate it bootstrapped from")
		}
		if promoted.Meta.CommitSeq != certSeq {
			if _, held := r.RootAt(certSeq); held {
				t.Fatalf("the replica re-executed seq %d, stayed healthy, and did not promote its certificate", certSeq)
			}
			return // never got that far
		}
		if root, _ := r.RootAt(certSeq); root != cert.Meta.StateRoot {
			t.Fatalf("promoted seq %d with chained root %s, certified %s", certSeq, root, cert.Meta.StateRoot)
		}
		for _, key := range []string{"alpha", "beta"} {
			pr, ok := r.ProvenRead([]byte(key))
			if !ok {
				t.Fatalf("no proven read of %q after promotion", key)
			}
			proved, _, err := pr.Proof.Verify([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if execution.StateDigestFrom(pr.Version, pr.Opaque, proved) != cert.Meta.StateDigest {
				t.Fatalf("the promoted view of %q does not reproduce the certified state digest", key)
			}
		}
	})
}
