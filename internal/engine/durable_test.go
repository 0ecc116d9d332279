package engine

import (
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// laterRecord is an Observer whose proposal records become durable later, as
// the node's WAL writer's do: Proposed reports false, and the test calls
// OnProposalDurable. It counts the own certificates formed.
type laterRecord struct{ certified []*Certificate }

func (*laterRecord) Inserted(*Certificate)                       {}
func (*laterRecord) Proposed(*Header) bool                       { return false }
func (o *laterRecord) Certified(c *Certificate)                  { o.certified = append(o.certified, c) }
func (*laterRecord) CheckpointCertified(*checkpoint.Certificate) {}

// certsIn returns the certificates an engine step broadcast.
func certsIn(out *Output) []*Certificate {
	var certs []*Certificate
	for _, m := range out.Broadcasts {
		if m.Kind == KindCertificate {
			certs = append(certs, m.Cert)
		}
	}
	return certs
}

// TestOwnCertificateWaitsForTheRecord: an own header goes out before its
// record is durable, and its certificate waits for the record. With a quorum
// of votes — and every vote after it — in and no durability report, no
// certificate is formed, broadcast or inserted, and the validator stays in
// its round although its peers' certificates complete it. The report forms
// the certificate from the quorum, and the round, now whole, is left in the
// same step. A report for a header the validator abandoned meanwhile (here by
// a catch-up jump) does nothing, and neither does a second report.
func TestOwnCertificateWaitsForTheRecord(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = false
	record := &laterRecord{}
	eng, err := New(Params{
		Config:    cfg,
		Committee: committee,
		Keys:      kp,
		Batches:   nilBatches{},
		Scheduler: leader.NewRoundRobin(committee, 1),
		DAG:       dag.New(committee),
		Observer:  record,
		Execution: &stubExec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := proposedIn(eng.Init(0))
	if h == nil || h.Round != 1 {
		t.Fatalf("Init proposed %v, want the round-1 header on the wire before its record is durable", h)
	}
	vote := func(h *Header, voter types.ValidatorID) *Output {
		return eng.OnMessage(voter, &Message{Kind: KindVote, Vote: &Vote{
			HeaderDigest: h.Digest(), Round: h.Round, Origin: h.Source, Voter: voter,
		}}, 0)
	}
	noCert := func(when string, round types.Round, outs ...*Output) {
		t.Helper()
		for _, out := range outs {
			if c := certsIn(out); len(c) != 0 {
				t.Fatalf("%s: broadcast certificate %v", when, c[0].Header.Round)
			}
		}
		if _, ok := eng.DAG().Get(round, 0); ok || eng.Stats().CertsFormed != 0 || len(record.certified) != 0 {
			t.Fatalf("%s: the own round-%d certificate formed", when, round)
		}
	}

	peers := peerRounds(committee, 1, 9)
	outs := []*Output{vote(h, 1), vote(h, 2), vote(h, 3)}
	for _, c := range peers[1] {
		outs = append(outs, eng.OnMessage(c.Header.Source, &Message{Kind: KindCertificate, Cert: c}, 0))
	}
	noCert("a quorum of votes, no report", 1, outs...)
	if eng.Round() != 1 {
		t.Fatalf("left round 1 for round %d without its own certificate", eng.Round())
	}

	out := eng.OnProposalDurable(1, 0)
	certs := certsIn(out)
	if len(certs) != 1 || certs[0].Header.Digest() != h.Digest() || len(certs[0].Votes) != 3 {
		t.Fatalf("the report broadcast %v, want the round-1 certificate from the quorum of three votes", certs)
	}
	if _, ok := eng.DAG().Get(1, 0); !ok || len(record.certified) != 1 {
		t.Fatal("the report did not insert the own certificate, or Certified did not see it")
	}
	next := proposedIn(out)
	if next == nil || next.Round != 2 {
		t.Fatalf("the whole round 1 must be left in the reporting step, proposed %v", next)
	}
	if again := eng.OnProposalDurable(1, 0); len(again.Broadcasts)+len(again.Unicasts)+len(again.Timers) != 0 {
		t.Fatalf("a second report for round 1 did %+v", again)
	}

	// Round 2: a quorum of votes and no report, then the committee runs more
	// than five rounds ahead and the catch-up jump abandons the header.
	record.certified = nil
	formed := eng.Stats().CertsFormed
	vote(next, 1)
	vote(next, 2)
	for r := types.Round(2); r <= 9; r++ {
		deliver(eng, peers[r])
	}
	if eng.Round() <= 2 || eng.Stats().HeadersAbandoned != 1 {
		t.Fatalf("at round %d with %d headers abandoned, want the round-2 header abandoned by a catch-up jump", eng.Round(), eng.Stats().HeadersAbandoned)
	}
	late := eng.OnProposalDurable(2, 0)
	if len(late.Broadcasts)+len(late.Unicasts)+len(late.Timers) != 0 {
		t.Fatalf("a late report for the abandoned round 2 did %+v", late)
	}
	if _, ok := eng.DAG().Get(2, 0); ok || eng.Stats().CertsFormed != formed || len(record.certified) != 0 {
		t.Fatal("the abandoned round-2 header certified")
	}
}
