package validator

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/core"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/engine"
	"hammerhead/internal/execution"
	"hammerhead/internal/leader"
	"hammerhead/internal/storage"
	"hammerhead/internal/types"
)

// events records what the runtime sees during Recover, in order; live, when
// set, reports whether the validator is live at the time.
type events struct {
	log      []string
	proposed []*engine.Header
	live     func() bool
}

func (e *events) Inserted(*engine.Certificate)  {}
func (e *events) Certified(*engine.Certificate) {}

func (e *events) CheckpointCertified(*checkpoint.Certificate) {}
func (e *events) Proposed(h *engine.Header) bool {
	if e.live != nil && e.live() {
		e.log = append(e.log, "proposed live")
	} else {
		e.log = append(e.log, "proposed")
	}
	e.proposed = append(e.proposed, h)
	return true
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
// the round-robin baseline, and ScheduleSeed seeds either one; the executor
// is built from a zero execution.Config.
func TestNewChoosesTheScheduler(t *testing.T) {
	cfg := testConfig(t, nil)
	v, err := New(cfg, nil)
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
	if v, err = New(cfg, nil); err != nil {
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
		t.Fatal("no executor built")
	}
}

// TestNewRefusesCertificationWithoutEveryKey: checkpoint certificates are
// verified against the whole committee.
func TestNewRefusesCertificationWithoutEveryKey(t *testing.T) {
	cfg := testConfig(t, nil)
	cfg.Execution = execution.Config{CheckpointCerts: true}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("certification without the committee's public keys must be refused")
	}
}

// TestInitOpensTheLogAndGoesLive: a validator is not live from New; Init
// opens its log for appending and records its first proposal live, and that
// proposal is what goes on the wire.
func TestInitOpensTheLogAndGoesLive(t *testing.T) {
	ev := &events{}
	path := filepath.Join(t.TempDir(), "v0", "wal")
	log := NewLog(path, nil)
	v, err := New(testConfig(t, ev), log)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Replaying() {
		t.Fatal("live before Init")
	}
	ev.live = func() bool { return !v.Replaying() }
	out, err := v.Init(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.log; len(got) != 1 || got[0] != "proposed live" {
		t.Fatalf("events %v, want the first proposal recorded live", got)
	}
	if h := headerIn(out); h == nil || h != ev.proposed[0] {
		t.Fatal("the recorded first proposal is not the header that goes on the wire")
	}
	if err := log.AppendProposal(ev.proposed[0]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := storage.Inspect(path); err != nil || info.Proposals != 1 {
		t.Fatalf("the log holds %+v (err %v), want the first proposal", info, err)
	}
}

// TestRecoverFreshBootRecordsItsFirstProposal: with nothing recorded, the
// first header is recorded once the validator is live — Init's own Proposed,
// made while replaying, never reaches the observer — and before anything is
// dispatched, and it is what goes on the wire.
func TestRecoverFreshBootRecordsItsFirstProposal(t *testing.T) {
	ev := &events{}
	v, err := New(testConfig(t, ev), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev.live = func() bool { return !v.Replaying() }
	var outs []*engine.Output
	err = v.Recover(func() int64 { return 0 },
		func(out *engine.Output) { ev.log = append(ev.log, "dispatch"); outs = append(outs, out) })
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.log; len(got) != 3 || got[0] != "proposed live" || got[1] != "dispatch" || got[2] != "dispatch" {
		t.Fatalf("events %v, want the proposal recorded live, then two dispatches", got)
	}
	if header := headerIn(outs[0]); header == nil || header != ev.proposed[0] || header != v.Engine.CurrentProposal() {
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
	// What a previous process signed for round 1: another batch, so another
	// digest than the header Init builds.
	recorded := &engine.Header{Round: 1, Source: 0, CreatedNanos: 7,
		Batch: &types.Batch{Transactions: []types.Transaction{{ID: 42}}}}
	path := filepath.Join(t.TempDir(), "wal")
	w, err := storage.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendProposal(recorded); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	v, err := New(testConfig(t, ev), NewLog(path, nil))
	if err != nil {
		t.Fatal(err)
	}
	var outs []*engine.Output
	err = v.Recover(func() int64 { return 0 },
		func(out *engine.Output) { outs = append(outs, out) })
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Engine.ProposalFloor(); got != 1 {
		t.Fatalf("proposal floor %d, want 1", got)
	}
	if cur := v.Engine.CurrentProposal(); cur == nil || cur.Digest() != recorded.Digest() {
		t.Fatal("the recorded header was not restored as the current proposal")
	}
	if h := headerIn(outs[0]); h != nil {
		t.Fatalf("Init's stale header for round %d went on the wire", h.Round)
	}
	if got := ev.log; len(got) != 0 {
		t.Fatalf("events %v: the restored header must not be recorded again", got)
	}
}

// TestRecoverStopsOnAReplayError: a log of another format generation is
// refused; nothing goes live, nothing is recorded and nothing transmits.
func TestRecoverStopsOnAReplayError(t *testing.T) {
	ev := &events{}
	// One CRC-intact record under a version tag this binary does not write.
	body := []byte{0x7f, 0x01}
	record := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	record = binary.BigEndian.AppendUint32(record, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, append(record, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := New(testConfig(t, ev), NewLog(path, nil))
	if err != nil {
		t.Fatal(err)
	}
	err = v.Recover(func() int64 { return 0 },
		func(*engine.Output) { t.Fatal("dispatched after a replay error") })
	if !errors.Is(err, storage.ErrUnknownRecordVersion) {
		t.Fatalf("Recover returned %v, want the replay's refusal of another format generation", err)
	}
	if !v.Replaying() || len(ev.log) != 0 {
		t.Fatalf("went live after a replay error (replaying %v, events %v)", v.Replaying(), ev.log)
	}
}

// TestRecoverRefusesACheckpointItsSchedulerCannotRestore: a checkpoint cut
// under the round-robin baseline carries no scheduler state, so a HammerHead
// validator recovering over it refuses it, naming its seq. Nothing goes live,
// and the executor stays at seq 0 instead of resuming at the checkpoint while
// the committer starts over at round 0.
func TestRecoverRefusesACheckpointItsSchedulerCannotRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	rrLog := NewLog(path, nil)
	rr, err := New(testConfig(t, &events{}), rrLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Init(0); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		anchor := dag.NewVertex(types.Round(2*seq), 0, nil, nil, 0)
		rr.Executor.ApplyCommit(bullshark.CommittedSubDAG{
			Index: seq, Anchor: anchor, Vertices: []*dag.Vertex{anchor},
			SchedulerState: rr.Engine.Scheduler().ExportState(),
		})
	}
	if snap, err := rr.Executor.ForceCheckpoint(); err != nil || snap.CommitSeq != 5 {
		t.Fatalf("checkpoint at seq %d (err %v), want 5", snap.CommitSeq, err)
	}
	rr.Executor.Close()
	if err := rrLog.Close(); err != nil {
		t.Fatal(err)
	}

	ev := &events{}
	cfg := testConfig(t, ev)
	hh := core.DefaultConfig()
	cfg.HammerHead = &hh
	v, err := New(cfg, NewLog(path, nil))
	if err != nil {
		t.Fatal(err)
	}
	err = v.Recover(func() int64 { return 0 },
		func(*engine.Output) { t.Fatal("dispatched after a refused checkpoint") })
	if err == nil || !strings.Contains(err.Error(), "seq 5") {
		t.Fatalf("Recover returned %v, want the checkpoint at seq 5 refused", err)
	}
	if seq, round := v.Executor.AppliedSeq(), v.Engine.Committer().LastOrderedRound(); seq != 0 || round != 0 {
		t.Fatalf("refused checkpoint left the executor at seq %d and the committer at round %d, want both at 0", seq, round)
	}
	if !v.Replaying() || len(ev.log) != 0 {
		t.Fatalf("went live after a refused checkpoint (replaying %v, events %v)", v.Replaying(), ev.log)
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

// TestSubmitReportsEachFill: Submit reports the admission that brings the
// pending count to MaxBatchTx, and only that one; once a drain takes the
// count back under it, the next fill is reported again, on either lane.
func TestSubmitReportsEachFill(t *testing.T) {
	cfg := testConfig(t, nil)
	cfg.Engine.MaxBatchTx = 4
	cfg.Mempool.Lanes = 2
	v, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	submit := func(client string) bool {
		t.Helper()
		id++
		tx := types.Transaction{ID: id}
		var filled bool
		var err error
		if client == "" {
			filled, err = v.Submit(tx)
		} else {
			filled, err = v.SubmitClient(client, tx)
		}
		if err != nil {
			t.Fatal(err)
		}
		return filled
	}
	for round := 0; round < 2; round++ {
		for i, client := range []string{"", "a", "b", "", "a"} {
			if got, want := submit(client), i == 3; got != want {
				t.Fatalf("pass %d: admission %d reported a fill: %v, want %v", round, i+1, got, want)
			}
		}
		v.Pool.NextBatch(0, 4)
		if got := submit("b"); got {
			t.Fatalf("pass %d: an admission at 2 of 4 after the drain reported a fill", round)
		}
		v.Pool.NextBatch(0, 100)
	}

	// Racing submitters: the pending count only grows, so it crosses once.
	var fills atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				filled, err := v.SubmitClient(client, types.Transaction{ID: uint64(1000 + i)})
				if err != nil {
					t.Error(err)
					return
				}
				if filled {
					fills.Add(1)
				}
			}
		}(string(rune('a' + g)))
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("racing submitters reported %d fills, want 1", n)
	}
}
