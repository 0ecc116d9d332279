package validator

import (
	"errors"
	"testing"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// events records what the runtime sees during Recover, in order.
type events struct {
	log      []string
	proposed []*engine.Header
}

func (e *events) Inserted(*engine.Certificate)  {}
func (e *events) Certified(*engine.Certificate) {}

func (e *events) CheckpointCertified(*checkpoint.Certificate) {}
func (e *events) Proposed(h *engine.Header) {
	e.log = append(e.log, "proposed")
	e.proposed = append(e.proposed, h)
}

func testConfig(t *testing.T, ev *events) Config {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := crypto.NewKeyPair(crypto.Insecure{}, [32]byte{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.VerifySignatures = false
	return Config{Committee: committee, Keys: keys, Engine: cfg, ScheduleSeed: 9, Observer: ev}
}

// TestNewChoosesTheScheduler: HammerHead picks the reputation scheduler, nil
// the round-robin baseline, and ScheduleSeed seeds either one.
func TestNewChoosesTheScheduler(t *testing.T) {
	cfg := testConfig(t, nil)
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := v.Engine.Scheduler().(*leader.RoundRobin)
	if !ok {
		t.Fatalf("baseline scheduler is %T", v.Engine.Scheduler())
	}
	want := leader.NewRoundRobin(cfg.Committee, cfg.ScheduleSeed)
	for r := types.Round(2); r < 40; r += 2 {
		if rr.LeaderAt(r) != want.LeaderAt(r) {
			t.Fatalf("round %d: leader %s, the seed-%d schedule says %s", r, rr.LeaderAt(r), cfg.ScheduleSeed, want.LeaderAt(r))
		}
	}
	hh := core.DefaultConfig()
	cfg.HammerHead = &hh
	cfg.Execution = &execution.Config{}
	if v, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	m, ok := v.Engine.Scheduler().(*core.Manager)
	if !ok {
		t.Fatalf("HammerHead scheduler is %T", v.Engine.Scheduler())
	}
	for r := types.Round(2); r < 40; r += 2 {
		if m.LeaderAt(r) != want.LeaderAt(r) {
			t.Fatalf("round %d: the initial reputation schedule is not the seed-%d permutation", r, cfg.ScheduleSeed)
		}
	}
	if v.Executor == nil {
		t.Fatal("Execution set, no executor built")
	}
}

// TestNewRefusesCertificationWithoutEveryKey: checkpoint certificates are
// verified against the whole committee.
func TestNewRefusesCertificationWithoutEveryKey(t *testing.T) {
	cfg := testConfig(t, nil)
	cfg.Execution = &execution.Config{CheckpointCerts: true}
	if _, err := New(cfg); err == nil {
		t.Fatal("certification without the committee's public keys must be refused")
	}
}

// TestRecoverFreshBootRecordsItsFirstProposal: with nothing recorded, the
// first header is recorded after the runtime goes live and before anything
// is dispatched, and it is what goes on the wire.
func TestRecoverFreshBootRecordsItsFirstProposal(t *testing.T) {
	ev := &events{}
	v, err := New(testConfig(t, ev))
	if err != nil {
		t.Fatal(err)
	}
	var outs []*engine.Output
	err = v.Recover(func() int64 { return 0 }, nil,
		func() { ev.log = append(ev.log, "live") },
		func(out *engine.Output) { ev.log = append(ev.log, "dispatch"); outs = append(outs, out) })
	if err != nil {
		t.Fatal(err)
	}
	// Init's own Proposed comes first: suppressing it is the runtime's job.
	if got := ev.log; len(got) != 5 || got[1] != "live" || got[2] != "proposed" || got[3] != "dispatch" || got[4] != "dispatch" {
		t.Fatalf("events %v, want Init's proposal, live, the proposal recorded, two dispatches", got)
	}
	if header := headerIn(outs[0]); header == nil || header != ev.proposed[1] || header != v.Engine.CurrentProposal() {
		t.Fatal("the recorded first proposal is not the header that goes on the wire")
	}
	if !v.Engine.Rejoining() {
		t.Fatal("recovery must end in the rejoin handshake")
	}
}

// TestRecoverRestoresTheRecordedProposal: a recorded own header becomes the
// voted-round mark and the current proposal; Init's fresh header for the same
// slot never goes out, and the restored one is not recorded twice.
func TestRecoverRestoresTheRecordedProposal(t *testing.T) {
	ev := &events{}
	v, err := New(testConfig(t, ev))
	if err != nil {
		t.Fatal(err)
	}
	// What a previous process signed for round 1: another batch, so another
	// digest than the header Init builds.
	recorded := &engine.Header{Round: 1, Source: 0, CreatedNanos: 7,
		Batch: &types.Batch{Transactions: []types.Transaction{{ID: 42}}}}
	var outs []*engine.Output
	err = v.Recover(func() int64 { return 0 },
		func(_ func(*engine.Certificate) error, proposal func(*engine.Header) error) error {
			return proposal(recorded)
		},
		func() { ev.log = append(ev.log, "live") },
		func(out *engine.Output) { outs = append(outs, out) })
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Engine.ProposalFloor(); got != 1 {
		t.Fatalf("proposal floor %d, want 1", got)
	}
	if v.Engine.CurrentProposal() != recorded {
		t.Fatal("the recorded header was not restored as the current proposal")
	}
	if h := headerIn(outs[0]); h != nil {
		t.Fatalf("Init's stale header for round %d went on the wire", h.Round)
	}
	if got := ev.log; len(got) != 2 || got[1] != "live" {
		t.Fatalf("events %v: the restored header must not be recorded again", got)
	}
}

// TestRecoverStopsOnAReplayError: nothing goes live and nothing transmits.
func TestRecoverStopsOnAReplayError(t *testing.T) {
	v, err := New(testConfig(t, &events{}))
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("another format generation")
	err = v.Recover(func() int64 { return 0 },
		func(func(*engine.Certificate) error, func(*engine.Header) error) error { return refused },
		func() { t.Fatal("went live after a replay error") },
		func(*engine.Output) { t.Fatal("dispatched after a replay error") })
	if !errors.Is(err, refused) {
		t.Fatalf("Recover returned %v, want the replay's error", err)
	}
}

func headerIn(out *engine.Output) *engine.Header {
	for _, m := range out.Broadcasts {
		if m.Kind == engine.KindHeader {
			return m.Header
		}
	}
	return nil
}
