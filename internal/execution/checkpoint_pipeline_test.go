package execution

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/checkpoint"
	"hammerhead/internal/types"
)

// testCert is a certificate for seq, distinct per tag. The executor stores
// certificates without vetting them, so it need not verify.
func testCert(seq uint64, tag byte) *checkpoint.Certificate {
	return &checkpoint.Certificate{
		Meta: checkpoint.Meta{CommitSeq: seq, StateRoot: types.HashBytes([]byte{tag})},
		Sigs: []checkpoint.Sig{{Validator: types.ValidatorID(tag % 4), Signature: []byte{tag, byte(seq)}}},
	}
}

// randomStream builds commits 1..n over a small key space: puts, deletes
// and opaque payloads across one to three vertices each.
func randomStream(rng *rand.Rand, n int) []bullshark.CommittedSubDAG {
	stream := make([]bullshark.CommittedSubDAG, n+1)
	for seq := 1; seq <= n; seq++ {
		lists := make([][][]byte, 1+rng.Intn(3))
		for i := range lists {
			for j := rng.Intn(6); j > 0; j-- {
				k := []byte(fmt.Sprintf("k%02d", rng.Intn(40)))
				switch rng.Intn(8) {
				case 0:
					lists[i] = append(lists[i], DeleteOp(k))
				case 1:
					lists[i] = append(lists[i], []byte("opaque"))
				default:
					lists[i] = append(lists[i], PutOp(k, []byte(fmt.Sprintf("v%d.%d", seq, j))))
				}
			}
		}
		stream[seq] = makeCommit(uint64(seq), types.Round(2*seq), lists...)
	}
	return stream
}

// TestCheckpointsMatchInlineOracle runs seeded commit streams through the
// executor and through the inline checkpointing it replaced, in lockstep,
// with and without certification, applying synchronously and through the
// apply and checkpoint goroutines: interval cuts, certificates for the
// cached checkpoints (and for ones not held), forced checkpoints,
// redeliveries, installs of certified and uncertified snapshots from ahead,
// and Close. After every step every blob either has saved is the same, in
// the same order, and so is everything served: the latest and previous
// snapshots, the certified blob, the certificate, the floor, the count and a
// proof-carrying read.
func TestCheckpointsMatchInlineOracle(t *testing.T) {
	for _, certs := range []bool{false, true} {
		for _, started := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("certs=%v/started=%v/seed=%d", certs, started, seed), func(t *testing.T) {
					lockstepWithOracle(t, seed, certs, started)
				})
			}
		}
	}
}

func lockstepWithOracle(t *testing.T, seed int64, certs, started bool) {
	rng := rand.New(rand.NewSource(seed))
	const n = 160
	stream := randomStream(rng, n)
	interval := uint64(2 + rng.Intn(4))
	o := newInlineOracle(interval, certs)
	store := &recordingStore{}
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: interval, CheckpointCerts: certs, Store: store})
	if started {
		x.Start()
	}
	// settle waits out the apply goroutine and has the writer finish what it
	// was handed, so both sides are compared at rest.
	settle := func() {
		if !started {
			return
		}
		for deadline := time.Now().Add(10 * time.Second); x.AppliedSeq() < o.x.AppliedSeq(); {
			if time.Now().After(deadline) {
				t.Fatalf("applied %d of %d commits", x.AppliedSeq(), o.x.AppliedSeq())
			}
			time.Sleep(time.Millisecond)
		}
		x.drain()
	}
	apply := func(c bullshark.CommittedSubDAG) {
		o.apply(c)
		if started {
			x.Submit(c)
		} else {
			x.ApplyCommit(c)
		}
	}
	tag := byte(0)
	next := 1
	for step := 0; next <= n; step++ {
		switch r := rng.Intn(20); {
		case r < 12:
			apply(stream[next])
			next++
		case r == 12 && next > 1:
			apply(stream[1+rng.Intn(next-1)]) // a redelivery both skip
		case r < 17:
			seq := o.latest.CommitSeq
			switch rng.Intn(4) {
			case 0:
				seq = o.prev.CommitSeq
			case 1:
				seq += uint64(1 + rng.Intn(3)) // not cut (yet)
			}
			tag++
			cert := testCert(seq, tag)
			if got, want := x.AttachCertificate(seq, cert), o.attach(seq, cert); got != want {
				t.Fatalf("step %d: AttachCertificate(%d) = %v, inline %v", step, seq, got, want)
			}
		case r == 17 && o.x.AppliedSeq() > o.latest.CommitSeq:
			settle()
			got, err := x.ForceCheckpoint()
			want, werr := o.checkpoint()
			if err != nil || werr != nil || !bytes.Equal(got.Data, want.Data) || got.Checkpoint != want.Checkpoint {
				t.Fatalf("step %d: forced checkpoint %+v (%v), inline %+v (%v)", step, got.Checkpoint, err, want.Checkpoint, werr)
			}
		case r == 18 && next+2 <= n:
			settle()
			upTo := next + 2 + rng.Intn(min(20, n-next-1))
			producer := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62})
			for seq := 1; seq <= upTo; seq++ {
				producer.ApplyCommit(stream[seq])
			}
			snap, err := producer.ForceCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				tag++
				snap.Cert = testCert(snap.CommitSeq, tag)
			}
			if err, werr := x.Install(snap), o.install(snap); err != nil || werr != nil {
				t.Fatalf("step %d: install at %d: %v, inline %v", step, snap.CommitSeq, err, werr)
			}
			next = upTo + 1
		}
		settle()
		compareWithOracle(t, fmt.Sprintf("step %d", step), x, store, o)
	}
	x.Close()
	o.close()
	compareWithOracle(t, "after Close", x, store, o)
}

// compareWithOracle holds the executor to the inline oracle: the same saves
// in the same order, and the same answers from every serving surface.
func compareWithOracle(t *testing.T, at string, x *Executor, store *recordingStore, o *inlineOracle) {
	t.Helper()
	got, want := store.log(), o.store.log()
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i].seq != want[i].seq || !bytes.Equal(got[i].blob, want[i].blob) {
			t.Fatalf("%s: save %d of %d differs from the inline oracle's %d", at, i, len(got), len(want))
		}
	}
	gm, gb, gok := x.LatestSnapshot()
	wm, wb, wok := o.latestSnapshot()
	if gm != wm || gok != wok || !bytes.Equal(gb, wb) {
		t.Fatalf("%s: latest snapshot seq %d (ok %v), inline seq %d (ok %v), blobs equal %v",
			at, gm.CommitSeq, gok, wm.CommitSeq, wok, bytes.Equal(gb, wb))
	}
	if o.havePrev {
		gm, gb, gok = x.SnapshotAt(o.prev.Round)
		wm, wb, wok = o.serve(o.prev)
		if gm != wm || gok != wok || !bytes.Equal(gb, wb) {
			t.Fatalf("%s: previous snapshot at round %d differs from the inline oracle's", at, o.prev.Round)
		}
	}
	gc, gcok := x.CertifiedSnapshotBlob()
	wc, wcok := o.certifiedBlob()
	if gcok != wcok || !bytes.Equal(gc, wc) {
		t.Fatalf("%s: certified blob (ok %v) differs from the inline oracle's (ok %v)", at, gcok, wcok)
	}
	if cert, _ := x.LatestCertificate(); cert != o.certified {
		t.Fatalf("%s: certificate %v, inline %v", at, cert, o.certified)
	}
	if x.SnapshotFloor() != o.latest.Floor || x.Checkpoints() != o.ckptCount {
		t.Fatalf("%s: floor %d after %d checkpoints, inline %d after %d",
			at, x.SnapshotFloor(), x.Checkpoints(), o.latest.Floor, o.ckptCount)
	}
	pr, ok := x.ProvenRead([]byte("k07"))
	if ok != (o.certifiedKV != nil) {
		t.Fatalf("%s: proven read served %v, inline %v", at, ok, o.certifiedKV != nil)
	}
	if ok {
		version, opaque := o.certifiedKV.Counters()
		root, entry, _ := pr.Proof.Verify([]byte("k07"))
		want := o.certifiedKV.Prove([]byte("k07"))
		wroot, wentry, _ := want.Verify([]byte("k07"))
		if pr.Version != version || pr.Opaque != opaque || root != wroot || !bytes.Equal(entry.Value, wentry.Value) {
			t.Fatalf("%s: proven read differs from the inline oracle's", at)
		}
	}
}

// blockingStore holds every Save until its gate is opened, signalling each
// one it holds on entered.
type blockingStore struct {
	recordingStore
	entered chan uint64
	gate    chan struct{}
}

func (s *blockingStore) Save(seq uint64, blob []byte) error {
	s.entered <- seq
	<-s.gate
	return s.recordingStore.Save(seq, blob)
}

// within fails the test if f does not return promptly.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind the checkpoint writer", what)
	}
}

// TestBlockedWriterStallsNothing holds the checkpoint writer — first before
// it takes a cut, then inside a save — and requires applies, reads,
// proof-carrying reads and certificates to go through regardless. A
// certificate that arrives before its cut is written is written with it, in
// one save; one that arrives during the save is sealed on by a second.
func TestBlockedWriterStallsNothing(t *testing.T) {
	store := &blockingStore{entered: make(chan uint64, 8), gate: make(chan struct{})}
	close(store.gate) // open until the second half
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 2, CheckpointCerts: true, Store: store})
	x.Start()
	defer x.Close()
	defer func() { // a failure must not leave Close waiting on a held save
		select {
		case <-store.gate:
		default:
			close(store.gate)
		}
	}()
	put := func(seq uint64) {
		x.ApplyCommit(makeCommit(seq, types.Round(2*seq), [][]byte{PutOp([]byte("k"), []byte(fmt.Sprintf("v%d", seq)))}))
	}
	put(1)
	put(2) // cut at 2
	<-store.entered
	x.drain() // written and cached
	x.AttachCertificate(2, testCert(2, 1))
	x.drain()
	if seq := <-store.entered; seq != 2 {
		t.Fatalf("writer saved seq %d, want the certified re-save of 2", seq)
	}

	// Hold the writer's turn: the next cut stays parked.
	early := testCert(4, 2)
	func() {
		x.writeMu.Lock()
		defer x.writeMu.Unlock()
		within(t, "ApplyCommit", func() { put(3); put(4) })
		within(t, "ReadKV", func() {
			if r, _ := x.ReadKV([]byte("k")); string(r.Value) != "v4" {
				t.Errorf("ReadKV = %q, want v4", r.Value)
			}
		})
		within(t, "ProvenRead", func() {
			if pr, ok := x.ProvenRead([]byte("k")); !ok || pr.Cert.Meta.CommitSeq != 2 {
				t.Error("no proven read at the certified seq 2")
			}
		})
		within(t, "AttachCertificate", func() {
			if !x.AttachCertificate(4, early) {
				t.Error("a certificate for the parked cut was refused")
			}
		})
		if pr, ok := x.ProvenRead([]byte("k")); !ok || pr.Cert != early {
			t.Fatal("the parked cut's view was not promoted by its certificate")
		}
		store.gate = make(chan struct{}) // hold the saves from here on
	}()
	if seq := <-store.entered; seq != 4 {
		t.Fatalf("writer saved seq %d, want the parked cut 4", seq)
	}
	// The writer is inside the save now.
	within(t, "ApplyCommit during a save", func() { put(5) })
	late := testCert(4, 3)
	within(t, "AttachCertificate during a save", func() { x.AttachCertificate(4, late) })
	close(store.gate)
	x.drain()

	saves := store.log()
	var at4 []*checkpoint.Certificate
	for _, s := range saves {
		if s.seq == 4 {
			snap, err := DecodeSnapshot(s.blob)
			if err != nil {
				t.Fatal(err)
			}
			at4 = append(at4, snap.Cert)
		}
	}
	if len(at4) != 2 || !at4[0].Equal(early) || !at4[1].Equal(late) {
		t.Fatalf("saves of seq 4 carry %v, want the early certificate with the cut, then the late one", at4)
	}
	blob, ok := x.CertifiedSnapshotBlob()
	if snap, err := DecodeSnapshot(blob); !ok || err != nil || !snap.Cert.Equal(late) {
		t.Fatal("the served blob does not carry the newest certificate")
	}
}

// TestWriteNeverReplacesNewerCheckpoint: an install that lands while an
// older cut is being saved is cached and saved; the older cut, once its save
// returns, must not replace it in the cache, nor be announced after it.
func TestWriteNeverReplacesNewerCheckpoint(t *testing.T) {
	stream := randomStream(rand.New(rand.NewSource(7)), 12)
	producer := NewExecutor(NewKVState(), Config{CheckpointInterval: 1 << 62})
	for seq := 1; seq <= 12; seq++ {
		producer.ApplyCommit(stream[seq])
	}
	installed, err := producer.ForceCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	store := &blockingStore{entered: make(chan uint64, 8), gate: make(chan struct{})}
	var announced []uint64
	x := NewExecutor(NewKVState(), Config{CheckpointInterval: 4, Store: store,
		OnCheckpoint: func(s Snapshot) { announced = append(announced, s.CommitSeq) }})
	x.Start()
	for seq := 1; seq <= 4; seq++ {
		x.ApplyCommit(stream[seq])
	}
	if seq := <-store.entered; seq != 4 {
		t.Fatalf("writer saving seq %d, want 4", seq)
	}
	within(t, "Install", func() {
		if err := x.Install(installed); err != nil {
			t.Error(err)
		}
	})
	close(store.gate)
	x.Close()
	if meta, _, _ := x.LatestSnapshot(); meta.CommitSeq != installed.CommitSeq {
		t.Fatalf("latest cached checkpoint is seq %d, want the install at %d", meta.CommitSeq, installed.CommitSeq)
	}
	if latest, ok := store.Latest(); !ok || latest.CommitSeq != installed.CommitSeq {
		t.Fatalf("store's latest is seq %d, want the install at %d", latest.CommitSeq, installed.CommitSeq)
	}
	if len(announced) != 1 || announced[0] != installed.CommitSeq {
		t.Fatalf("announced %v, want only the install at %d", announced, installed.CommitSeq)
	}
}
