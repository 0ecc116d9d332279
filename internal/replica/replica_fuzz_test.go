package replica

import (
	"bytes"
	"encoding/json"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/execution"
	"hammerhead/pkg/rpcapi"
)

// FuzzReplicaCommitEvents feeds a replica — bootstrapped from the harness
// producer's certified snapshot, as it would be from a validator — a full
// stream it has no reason to trust: newline-separated JSON frames, each a
// rpcapi.CommitEvent or {"checkpoint": rpcapi.CheckpointCert}, taken as they
// decode. The producer's own events and certificates seed the corpus.
// Whatever arrives, the replica never panics; an event it refuses without
// being poisoned leaves AppliedSeq and ChainedRoot where they were, and one
// it takes advances them by exactly one commit; a certificate frame stops the
// stream only by poisoning the replica, never moves the certified sequence
// back, and is promoted only if it verifies against the committee and the
// replica's chained root at its sequence; and the producer's certificate
// over a later sequence then either poisons the replica or finds its roots
// at that sequence equal to the producer's — it never promotes a view the
// certificate does not certify.
func FuzzReplicaCommitEvents(f *testing.F) {
	h := newHarness(f)
	h.commit(execution.PutOp([]byte("alpha"), []byte("1")))
	h.certify(f, 3)
	blob, ok := h.producer.CertifiedSnapshotBlob()
	if !ok {
		f.Fatal("producer serves no certified blob")
	}
	var honest []frame
	var certs []*checkpoint.Certificate
	for _, p := range [][]byte{
		execution.PutOp([]byte("alpha"), []byte("2")),
		execution.DeleteOp([]byte("alpha")),
		execution.PutOp([]byte("beta"), []byte("3")),
	} {
		honest = append(honest, frame{CommitEvent: h.commit(p, []byte("opaque"))})
		c, _ := h.certify(f, 3)
		certs = append(certs, c)
	}
	cert := certs[len(certs)-1]
	push := func(c *checkpoint.Certificate) frame {
		w := rpcapi.CertToWire(c)
		return frame{Checkpoint: &w}
	}
	stream := func(frames ...frame) []byte {
		var b []byte
		for _, fr := range frames {
			line, err := json.Marshal(fr)
			if err != nil {
				f.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		return b
	}
	tampered := honest[1]
	tampered.Payloads = [][]byte{execution.PutOp([]byte("alpha"), []byte("EVIL"))}
	forged := push(certs[1])
	forged.Checkpoint.StateRoot = forged.Checkpoint.StateDigest // signatures no longer cover it
	f.Add(stream(honest...))
	f.Add(stream(honest[0], honest[0], honest[1], honest[2])) // a resumed stream's overlap
	f.Add(stream(honest[0], honest[2], honest[1]))            // a gap
	f.Add(stream(honest[0], honest[1]))                       // short of the certificate
	f.Add(stream(honest[0], tampered, honest[2]))             // a lie the certificate exposes
	f.Add(stream(honest[0], push(certs[0]), honest[1], push(certs[1]), honest[2], push(certs[2])))
	f.Add(stream(push(certs[2]), push(certs[0]), honest[0], honest[1], honest[2])) // pushed ahead, held
	f.Add(stream(honest[0], forged, honest[1], push(certs[1])))                    // a forgery, dropped
	f.Add(stream(honest[0], push(certs[1]), tampered))                             // held, then contradicted
	f.Add([]byte(`{"seq":2,"round":4,"commit_digest":"00"}`))
	f.Add([]byte(`{"checkpoint":{"commit_seq":3,"state_root":"00"}}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := h.newReplica(t)
		defer r.Close()
		if err := r.BootstrapFromBlob(blob); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		for r.Err() == nil {
			var fr frame
			if dec.Decode(&fr) != nil {
				break
			}
			seq, root := r.AppliedSeq(), r.ChainedRoot()
			certified, _ := r.Certificate()
			if fr.Checkpoint != nil {
				if err := r.onCheckpoint(*fr.Checkpoint); err != nil && r.Err() == nil {
					t.Fatalf("certificate frame stopped the stream without poisoning: %v", err)
				}
				checkPromoted(t, h, r, certified)
				continue
			}
			ev := fr.CommitEvent
			err := r.ApplyCommitEvent(ev)
			switch gotSeq := r.AppliedSeq(); {
			case err != nil && r.Err() == nil && (gotSeq != seq || r.ChainedRoot() != root):
				t.Fatalf("refused event %d (%v) moved the replica from seq %d to %d", ev.Seq, err, seq, gotSeq)
			case (err == nil || r.Err() != nil) && gotSeq != seq && (gotSeq != seq+1 || ev.Seq != gotSeq):
				t.Fatalf("event %d took the replica from seq %d to %d", ev.Seq, seq, gotSeq)
			case err == nil && gotSeq == seq && r.ChainedRoot() != root:
				t.Fatalf("event %d left seq %d but moved the chained root", ev.Seq, seq)
			}
			checkPromoted(t, h, r, certified)
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
		if promoted.Meta.CommitSeq > certSeq {
			return // promoted a later one the input pushed; checkPromoted vetted it
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

// frame is one line of FuzzReplicaCommitEvents' input: a commit event, or a
// pushed certificate when Checkpoint is set.
type frame struct {
	rpcapi.CommitEvent
	Checkpoint *rpcapi.CheckpointCert `json:"checkpoint,omitempty"`
}

// checkPromoted holds a healthy replica's certificate to what promotion
// requires: never older than before the step, signed by a committee quorum,
// and over the chained root the replica itself derived at that sequence.
func checkPromoted(t *testing.T, h *harness, r *Replica, before *checkpoint.Certificate) {
	t.Helper()
	cert, ok := r.Certificate()
	if r.Err() != nil || cert == before {
		return
	}
	if !ok || cert.Meta.CommitSeq < before.Meta.CommitSeq {
		t.Fatalf("certified sequence moved back from %d", before.Meta.CommitSeq)
	}
	if err := h.verifier.VerifyCert(cert); err != nil {
		t.Fatalf("promoted a certificate the committee did not sign: %v", err)
	}
	if root, held := r.RootAt(cert.Meta.CommitSeq); !held || root != cert.Meta.StateRoot {
		t.Fatalf("promoted seq %d over chained root %s, re-executed %s", cert.Meta.CommitSeq, cert.Meta.StateRoot, root)
	}
}
