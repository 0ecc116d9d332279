package engine

import (
	"bytes"
	"hash/crc32"
	"testing"
	"time"

	"hammerhead/internal/checkpoint"
	"hammerhead/internal/crypto"
	"hammerhead/internal/dag"
	"hammerhead/internal/leader"
	"hammerhead/internal/types"
)

// The tests here drive the engine's state-sync protocol against a stub
// Execution (the in-package tests cannot import internal/execution — it
// imports this package). The real executor behind the same interface is
// exercised end to end by the simnet snapshot catch-up tests and the
// execution package's own install tests.

// stubExec is an Execution: serving from stubSnapshots (nil: no checkpoint
// yet), installing through stubInstaller (nil: refuses every snapshot),
// recording the checkpoint certificates attached to it when certify is set.
type stubExec struct {
	*stubSnapshots
	*stubInstaller
	certify bool
	certs   []*checkpoint.Certificate
}

func (s *stubExec) CheckpointCerts() bool { return s.certify }

func (s *stubExec) AttachCertificate(_ uint64, cert *checkpoint.Certificate) bool {
	s.certs = append(s.certs, cert)
	return true
}

// stubSnapshots serves one fixed blob.
type stubSnapshots struct {
	meta SnapshotMeta
	blob []byte
	ok   bool
}

func (s *stubSnapshots) LatestSnapshot() (SnapshotMeta, []byte, bool) {
	if s == nil {
		return SnapshotMeta{}, nil, false
	}
	return s.meta, s.blob, s.ok
}

func (s *stubSnapshots) SnapshotAt(round types.Round) (SnapshotMeta, []byte, bool) {
	if s != nil && s.ok && s.meta.Round == round {
		return s.meta, s.blob, true
	}
	return SnapshotMeta{}, nil, false
}

// stubInstaller mimics the execution layer's verification: the blob must
// hash to the advertised state digest (a corrupted chunk breaks it), the
// scheduler is restored from the empty state a round-robin checkpoint
// carries, and the engine is told to fast-forward to the checkpoint.
type stubInstaller struct {
	install  *SnapshotInstall
	installs int
	lastMeta SnapshotMeta
	lastData []byte
}

func (s *stubInstaller) InstallFromWire(meta SnapshotMeta, data []byte, restore func([]byte) error) (*SnapshotInstall, error) {
	if s == nil || types.HashBytes(data) != meta.StateDigest {
		return nil, corruptErr{}
	}
	if err := restore(nil); err != nil {
		return nil, err
	}
	s.installs++
	s.lastMeta = meta
	s.lastData = append([]byte(nil), data...)
	if s.install != nil {
		return s.install, nil
	}
	floor := types.Round(0)
	if meta.Round > 3 {
		floor = meta.Round - 3
	}
	return &SnapshotInstall{PruneTo: floor}, nil
}

type corruptErr struct{}

func (corruptErr) Error() string { return "stub: state digest mismatch" }

// chunkedBlob is a snapshot blob that spans chunks snapshot chunks, the last
// one half full.
func chunkedBlob(chunks int) []byte {
	blob := make([]byte, (chunks-1)*snapshotChunkBytes+snapshotChunkBytes/2)
	for i := range blob {
		blob[i] = byte(i % 251)
	}
	return blob
}

// snapMeta builds a consistent meta for a blob.
func snapMeta(round types.Round, seq uint64, blob []byte) SnapshotMeta {
	return SnapshotMeta{
		Round:       round,
		CommitSeq:   seq,
		StateRoot:   types.HashBytes([]byte("root"), blob),
		StateDigest: types.HashBytes(blob),
	}
}

// newSyncRig builds a testRig with a shallow GC depth,
// engine 0 serving `serve` and every engine able to install via its own
// stubInstaller. Returns the rig and the per-engine installers.
func newSyncRig(t *testing.T, n int, serve *stubSnapshots) (*testRig, []*stubInstaller) {
	t.Helper()
	committee, err := types.NewEqualStakeCommittee(n)
	if err != nil {
		t.Fatal(err)
	}
	scheme := crypto.Insecure{}
	var seed [32]byte
	pubKeys := make([]crypto.PublicKey, n)
	pairs := make([]crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.NewKeyPair(scheme, seed, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = kp
		pubKeys[i] = kp.Public
	}
	cfg := DefaultConfig()
	cfg.VerifySignatures = true
	cfg.GCDepth = 4
	rig := &testRig{committee: committee}
	installers := make([]*stubInstaller, n)
	for i := 0; i < n; i++ {
		collector := &commitCollector{}
		installers[i] = &stubInstaller{}
		exec := &stubExec{stubInstaller: installers[i]}
		if i == 0 {
			exec.stubSnapshots = serve
		}
		eng, err := New(Params{
			Config:     cfg,
			Committee:  committee,
			Self:       types.ValidatorID(i),
			Keys:       pairs[i],
			PublicKeys: pubKeys,
			Batches:    nilBatches{},
			Scheduler:  leader.NewRoundRobin(committee, 1),
			DAG:        dag.New(committee),
			Commits:    collector,
			Execution:  exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.engines = append(rig.engines, eng)
		rig.commits = append(rig.commits, collector)
	}
	return rig, installers
}

// serveSnapshotLoop routes the recovering engine's snapshot requests to the
// rig until quiescent, optionally mutating responses.
func serveSnapshotLoop(t *testing.T, rig *testRig, recovering *Engine, out *Output, mutate func(*SnapshotResponse)) {
	t.Helper()
	for hops := 0; hops < 256; hops++ {
		var next []Unicast
		for _, u := range out.Unicasts {
			if u.Msg.Kind != KindSnapshotRequest {
				continue
			}
			resp := rig.engines[u.To].OnMessage(recovering.self, u.Msg, 0)
			for _, ru := range resp.Unicasts {
				if ru.Msg.Kind == KindSnapshotResponse && mutate != nil {
					mutate(ru.Msg.SnapshotResponse)
				}
				o := recovering.OnMessage(u.To, ru.Msg, 0)
				next = append(next, o.Unicasts...)
			}
		}
		if len(next) == 0 {
			return
		}
		out = &Output{Unicasts: next}
	}
	t.Fatal("snapshot exchange did not quiesce")
}

// triggerBeyondHorizon isolates the recovering engine while its peers
// certify rounds past its GC horizon and prune what it holds, then feeds it a
// frontier certificate. The certificate, far above what it holds, pulls from
// its highest round to the certificate's source, engine 0, whose reply offers
// its checkpoint; the returned output is the recovering engine's answer to
// that reply.
func triggerBeyondHorizon(t *testing.T, rig *testRig, recovering *Engine, rounds int) *Output {
	t.Helper()
	frontier := isolateFor(t, rig, recovering.self, rounds)
	source := frontier[0].Header.Source
	now := int64(time.Second)
	out := recovering.OnMessage(source, &Message{Kind: KindCertificate, Cert: frontier[0]}, now)
	pull := findUnicastTo(out, source, KindRoundRequest)
	if pull == nil {
		t.Fatal("a certificate beyond the GC horizon must trigger a round pull")
	}
	reply := findUnicastTo(rig.engines[source].OnMessage(recovering.self, pull, now), recovering.self, KindCertResponse)
	if reply == nil || reply.CertResponse.Offer == nil {
		t.Fatalf("the round pull's reply must offer the responder's checkpoint: %v", reply)
	}
	return recovering.OnMessage(source, reply, now)
}

// TestBeyondHorizonTriggersSnapshotRequest: a validator whose peers pruned
// past its DAG pulls rounds as it would any gap, and the reply's checkpoint
// offer starts exactly one SnapshotRequest, pinned to the offered round.
func TestBeyondHorizonTriggersSnapshotRequest(t *testing.T) {
	blob := chunkedBlob(3)
	serve := &stubSnapshots{meta: snapMeta(12, 6, blob), blob: blob, ok: true}
	rig, installers := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	recovering := rig.engines[3]
	out := triggerBeyondHorizon(t, rig, recovering, 64)

	var snapReqs int
	for _, u := range out.Unicasts {
		if u.Msg.Kind == KindSnapshotRequest {
			snapReqs++
			if u.To == recovering.self {
				t.Fatal("snapshot request sent to self")
			}
			if u.Msg.SnapshotRequest.Round != serve.meta.Round {
				t.Fatalf("snapshot request pinned round %d, want the offered %d", u.Msg.SnapshotRequest.Round, serve.meta.Round)
			}
		}
	}
	if snapReqs != 1 {
		t.Fatalf("the offer beyond the GC horizon must trigger exactly one snapshot request, got %d", snapReqs)
	}
	// Within the horizon, range sync (not snapshots) handles the gap: a
	// fresh engine one round behind must not request snapshots.
	if st := rig.engines[0].Stats(); st.SnapshotRequests != 0 {
		t.Fatalf("live engine issued %d snapshot requests", st.SnapshotRequests)
	}
	_ = installers
}

func TestSnapshotFetchAssemblesChunksAndFastForwards(t *testing.T) {
	blob := chunkedBlob(4)
	meta := snapMeta(12, 6, blob)
	serve := &stubSnapshots{meta: meta, blob: blob, ok: true}
	rig, installers := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	recovering := rig.engines[3]
	out := triggerBeyondHorizon(t, rig, recovering, 64)
	serveSnapshotLoop(t, rig, recovering, out, nil)

	st := recovering.Stats()
	if st.SnapshotInstalls != 1 || installers[3].installs != 1 {
		t.Fatalf("installs = %d/%d (failures=%d), want 1", st.SnapshotInstalls, installers[3].installs, st.SnapshotInstallFailures)
	}
	if st.SnapshotRequests < 3 {
		t.Fatalf("SnapshotRequests = %d, want >= 3 (a chunked fetch of a %d-byte blob)", st.SnapshotRequests, len(blob))
	}
	if !bytes.Equal(installers[3].lastData, blob) {
		t.Fatalf("installer got %d bytes, want the full %d-byte blob", len(installers[3].lastData), len(blob))
	}
	if installers[3].lastMeta != meta {
		t.Fatalf("installer meta = %+v, want %+v", installers[3].lastMeta, meta)
	}
	if got := recovering.Committer().LastOrderedRound(); got != meta.Round {
		t.Fatalf("committer fast-forwarded to %d, want %d", got, meta.Round)
	}
	if got := recovering.DAG().PrunedTo(); got != meta.Round-3 {
		t.Fatalf("DAG floor = %d, want %d", got, meta.Round-3)
	}
	if recovering.Round() < meta.Round {
		t.Fatalf("proposing round %d below checkpoint %d", recovering.Round(), meta.Round)
	}
}

func TestSnapshotResponderWithoutCheckpoint(t *testing.T) {
	// Edge case: the responder runs an execution layer but has no checkpoint
	// yet — it must answer with an explicit "nothing" so the requester can
	// move on rather than hang.
	serve := &stubSnapshots{ok: false}
	rig, _ := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	out := rig.engines[0].OnMessage(2, &Message{Kind: KindSnapshotRequest, SnapshotRequest: &SnapshotRequest{}}, 0)
	if len(out.Unicasts) != 1 || out.Unicasts[0].Msg.Kind != KindSnapshotResponse {
		t.Fatalf("want one empty SnapshotResponse, got %+v", out.Unicasts)
	}
	if r := out.Unicasts[0].Msg.SnapshotResponse; r.Round != 0 || len(r.Data) != 0 {
		t.Fatalf("empty response has round=%d |%dB|", r.Round, len(r.Data))
	}

	// A requester receiving "nothing" clears its fetch and installs nothing.
	requester := rig.engines[1]
	requester.snapFetch = snapFetch{active: true, target: 0}
	requester.OnMessage(0, out.Unicasts[0].Msg, 0)
	if requester.snapFetch.active {
		t.Fatal("empty response must deactivate the fetch")
	}
	if requester.Stats().SnapshotInstalls != 0 {
		t.Fatal("no install may happen on an empty response")
	}
}

func TestSnapshotOlderThanAppliedRoundRejected(t *testing.T) {
	// Edge case: the responder's checkpoint is older than what the requester
	// already ordered (it caught up while the fetch was in flight).
	// Installing would move state backwards — the response must be dropped.
	rig, installers := newSyncRig(t, 4, nil)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	for i := 0; i < 14; i++ {
		certifyRound(t, rig, nil)
	}
	caught := rig.engines[1]
	if caught.Committer().LastOrderedRound() < 4 {
		t.Fatalf("rig too slow: ordered %d", caught.Committer().LastOrderedRound())
	}
	caught.snapFetch = snapFetch{active: true, target: 0}
	caught.OnMessage(0, &Message{Kind: KindSnapshotResponse, SnapshotResponse: &SnapshotResponse{
		Round: 2, CommitSeq: 1, Chunks: 1, Chunk: 0, Data: []byte("stale"),
	}}, 0)
	if caught.snapFetch.active {
		t.Fatal("stale-checkpoint response must deactivate the fetch")
	}
	if st := caught.Stats(); st.SnapshotInstalls != 0 || st.SnapshotInstallFailures != 0 {
		t.Fatalf("stale checkpoint must never reach the installer: %+v", st)
	}
	if installers[1].installs != 0 {
		t.Fatal("installer was invoked for a stale checkpoint")
	}
	if got := caught.Committer().LastOrderedRound(); got < 4 {
		t.Fatalf("committer regressed to %d", got)
	}
}

func TestCorruptSnapshotChunkRejectsInstall(t *testing.T) {
	// Edge case: a chunk whose per-chunk CRC is self-consistent but whose
	// content is garbage (a responder serving corrupted state, not transit
	// damage) must fail the install — the installer recomputes the state
	// digest over the assembled payload — and leave the engine
	// un-fast-forwarded, free to retry.
	blob := chunkedBlob(4)
	serve := &stubSnapshots{meta: snapMeta(12, 6, blob), blob: blob, ok: true}
	rig, installers := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	recovering := rig.engines[3]
	out := triggerBeyondHorizon(t, rig, recovering, 64)
	serveSnapshotLoop(t, rig, recovering, out, func(resp *SnapshotResponse) {
		if resp.Round != 0 && resp.Chunk == resp.Chunks/2 && len(resp.Data) > 0 {
			data := append([]byte(nil), resp.Data...)
			data[len(data)/2] ^= 0xFF
			resp.Data = data
			resp.DataCRC = crc32.Checksum(data, snapCRCTable) // consistent lie
		}
	})

	st := recovering.Stats()
	if st.SnapshotInstallFailures == 0 {
		t.Fatalf("corrupted chunk must count as an install failure: %+v", st)
	}
	if st.SnapshotInstalls != 0 || installers[3].installs != 0 {
		t.Fatalf("corrupted snapshot must not install: %+v", st)
	}
	if got := recovering.Committer().LastOrderedRound(); got != 0 {
		t.Fatalf("committer fast-forwarded to %d on a corrupt snapshot", got)
	}
	if recovering.snapFetch.active {
		t.Fatal("failed install must clear the fetch for a retry")
	}
}

func TestSnapshotChunkCRCRejectedOnReceipt(t *testing.T) {
	// A chunk damaged in transit (CRC no longer matches) must be dropped the
	// moment it arrives — before it reaches the assembly buffer — so one
	// flipped bit cannot force re-fetching an entire multi-chunk snapshot,
	// and garbage can never fill the fetch cap. The pacing timer then
	// re-pulls the dropped chunk and the fetch completes.
	blob := chunkedBlob(3)
	serve := &stubSnapshots{meta: snapMeta(12, 6, blob), blob: blob, ok: true}
	rig, installers := newSyncRig(t, 4, serve)
	for i := range rig.engines {
		rig.engines[i].Init(0)
	}
	recovering := rig.engines[3]
	corruptOnce := true
	mutate := func(resp *SnapshotResponse) {
		if corruptOnce && resp.Round != 0 && resp.Chunk == 1 && len(resp.Data) > 0 {
			corruptOnce = false
			data := append([]byte(nil), resp.Data...)
			data[0] ^= 0xFF
			resp.Data = data // DataCRC left as served: transit corruption
		}
	}
	out := triggerBeyondHorizon(t, rig, recovering, 64)
	serveSnapshotLoop(t, rig, recovering, out, mutate)

	st := recovering.Stats()
	if st.SnapshotChunkRejects != 1 {
		t.Fatalf("SnapshotChunkRejects = %d, want 1", st.SnapshotChunkRejects)
	}
	if st.SnapshotInstalls != 0 || st.SnapshotInstallFailures != 0 {
		t.Fatalf("a dropped chunk must reach neither the installer nor the failure counter: %+v", st)
	}
	if !recovering.snapFetch.active {
		t.Fatal("fetch must stay active, waiting for the retry timer")
	}
	if got := int(recovering.snapFetch.next); got != 1 {
		t.Fatalf("fetch cursor advanced to %d past the rejected chunk", got)
	}

	// The pacing timer retries the missing chunk (first firing records the
	// stall baseline, the second re-requests); the fetch then completes with
	// intact data.
	recovering.OnTimer(Timer{Kind: TimerSnapshot}, 1)
	out = recovering.OnTimer(Timer{Kind: TimerSnapshot}, 2)
	serveSnapshotLoop(t, rig, recovering, out, nil)
	st = recovering.Stats()
	if st.SnapshotInstalls != 1 || installers[3].installs != 1 {
		t.Fatalf("fetch did not complete after the retry: %+v", st)
	}
	if !bytes.Equal(installers[3].lastData, blob) {
		t.Fatalf("installer got %d bytes, want the full %d-byte blob", len(installers[3].lastData), len(blob))
	}
}

func snapshotlessConfig() Config {
	cfg := DefaultConfig()
	cfg.VerifySignatures = false
	return cfg
}

// TestStalledSnapshotFetchRotatesThroughEveryPeer: a fetch whose responder
// stalls moves on after snapshotStallRetries retries, to the next member
// after the stalled one, skipping self — so over enough firings it asks
// every peer, whichever one it stalled on — and it stays pinned to the
// offered checkpoint round throughout.
func TestStalledSnapshotFetchRotatesThroughEveryPeer(t *testing.T) {
	const firings = 12
	meta := snapMeta(40, 20, []byte("blob"))
	for _, tc := range []struct{ self, stalledOn types.ValidatorID }{{2, 3}, {1, 3}, {0, 3}, {3, 2}} {
		rig, _ := newSyncRig(t, 4, nil)
		e := rig.engines[tc.self]
		e.snapFetch = snapFetch{active: true, target: tc.stalledOn, meta: meta}
		asked := map[types.ValidatorID]bool{}
		var order []types.ValidatorID
		for i := int64(1); i <= firings; i++ {
			for _, u := range e.OnTimer(Timer{Kind: TimerSnapshot}, i).Unicasts {
				if u.Msg.Kind != KindSnapshotRequest {
					continue
				}
				if got := u.Msg.SnapshotRequest.Round; got != meta.Round {
					t.Fatalf("v%d: a retry asked v%d for round %d, want the pinned %d", tc.self, u.To, got, meta.Round)
				}
				asked[u.To] = true
				order = append(order, u.To)
			}
		}
		if asked[tc.self] || len(asked) != 3 {
			t.Fatalf("v%d stalled on v%d asked %v over %d firings, want each of the other three", tc.self, tc.stalledOn, order, firings)
		}
	}
}
