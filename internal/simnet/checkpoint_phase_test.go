package simnet

import (
	"testing"
	"time"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/engine"
	"hammerhead/internal/types"
)

// certTap records the checkpoint certificates a validator's engine delivers,
// in order, and passes every record on to the validator's own observer.
type certTap struct {
	engine.Observer
	id    types.ValidatorID
	certs map[types.ValidatorID][]checkpoint.Meta
}

func (o certTap) Inserted(cert *engine.Certificate) {
	if o.Observer != nil {
		o.Observer.Inserted(cert)
	}
}

func (o certTap) Proposed(h *engine.Header) bool {
	return o.Observer == nil || o.Observer.Proposed(h)
}

func (o certTap) Certified(cert *engine.Certificate) {
	if o.Observer != nil {
		o.Observer.Certified(cert)
	}
}

func (o certTap) CheckpointCertified(cert *checkpoint.Certificate) {
	if o.Observer != nil {
		o.Observer.CheckpointCertified(cert)
	}
	o.certs[o.id] = append(o.certs[o.id], cert.Meta)
}

// TestCheckpointsLandWhereThePeriodWaits runs four certifying validators at
// checkpoint interval 2. Healthy, every checkpoint is cut at a commit that
// ends a period's fast phase — anchor round ≡ 2 (mod 4) — and certified at
// the same seqs on all four. With one validator crashed the other three keep
// certifying, never more than interval+1 commits apart.
func TestCheckpointsLandWhereThePeriodWaits(t *testing.T) {
	const (
		interval = 2
		crashAt  = 6 * time.Second
		runFor   = 12 * time.Second
	)
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		Committee:          committee,
		Engine:             fastSimEngineConfig(),
		Latency:            Uniform{Base: 20 * time.Millisecond, Jitter: 0.1},
		ScheduleSeed:       1,
		CheckpointInterval: interval,
		Seed:               5,
	})
	if err != nil {
		t.Fatal(err)
	}
	certs := make(map[types.ValidatorID][]checkpoint.Meta)
	cluster.certify = true
	cluster.tap = func(id types.ValidatorID, next engine.Observer) engine.Observer {
		return certTap{Observer: next, id: id, certs: certs}
	}
	for i := range cluster.validators {
		if err := cluster.buildValidator(types.ValidatorID(i)); err != nil {
			t.Fatal(err)
		}
	}
	submitKVLoad(cluster, runFor)
	cluster.CrashAt(3, crashAt)
	cluster.Start()
	cluster.Sim.RunFor(runFor)

	// Healthy: every certificate v3 took before it crashed.
	ref := certs[3]
	if len(ref) < 20 {
		t.Fatalf("v3 saw %d certificates before it crashed", len(ref))
	}
	for i, m := range ref {
		if m.Round%4 != 2 {
			t.Fatalf("checkpoint at seq %d is at anchor round %d ≢ 2 (mod 4)", m.CommitSeq, m.Round)
		}
		if i > 0 && m.CommitSeq-ref[i-1].CommitSeq > interval+1 {
			t.Fatalf("certified seqs %d and %d are more than %d commits apart", ref[i-1].CommitSeq, m.CommitSeq, interval+1)
		}
	}
	for id := 0; id < 3; id++ {
		got := certs[types.ValidatorID(id)]
		if len(got) < len(ref) {
			t.Fatalf("v%d holds %d certificates, the crashed v3 held %d", id, len(got), len(ref))
		}
		for i, m := range ref {
			if got[i] != m {
				t.Fatalf("v%d's certificate %d covers %+v, v3's covers %+v", id, i, got[i], m)
			}
		}
	}

	// Crashed: the three live validators keep certifying.
	crashSeq := ref[len(ref)-1].CommitSeq
	for id := 0; id < 3; id++ {
		got := certs[types.ValidatorID(id)]
		if after := len(got) - len(ref); after < 5 {
			t.Fatalf("v%d certified %d checkpoints past seq %d, where v3 crashed", id, after, crashSeq)
		}
		for i := 1; i < len(got); i++ {
			if gap := got[i].CommitSeq - got[i-1].CommitSeq; gap > interval+1 {
				t.Fatalf("v%d certified seqs %d and %d: %d commits apart", id, got[i-1].CommitSeq, got[i].CommitSeq, gap)
			}
		}
	}
}
