package execution

import (
	"math/rand"
	"reflect"
	"testing"

	"hammerhead/internal/types"
)

// TestCheckpointCutRule pins checkpointDue: the exact seqs a stream of
// commits cuts at, for anchors alternating between the two phases (starting
// in either), for anchors ≡ 0 (mod 4) only (every ≡ 2 leader skipped), and
// for intervals 1, 2, 3 and 32. No two cuts, and not the first cut and
// genesis, are more than n+1 commits apart. An executor fed the same stream
// cuts at the same seqs.
func TestCheckpointCutRule(t *testing.T) {
	endsFirst := func(seq uint64) types.Round { return types.Round(2 * seq) }    // seq 1 anchors round 2
	waitsFirst := func(seq uint64) types.Round { return types.Round(2*seq + 2) } // seq 1 anchors round 4
	onlyZero := func(seq uint64) types.Round { return types.Round(4 * seq) }
	for _, c := range []struct {
		name    string
		n       uint64
		commits uint64
		anchor  func(seq uint64) types.Round
		want    []uint64
	}{
		{"n=1/alternating", 1, 5, endsFirst, []uint64{1, 2, 3, 4, 5}},
		{"n=1/only-0", 1, 5, onlyZero, []uint64{1, 2, 3, 4, 5}},
		{"n=2/alternating-2-first", 2, 10, endsFirst, []uint64{3, 5, 7, 9}},
		{"n=2/alternating-0-first", 2, 10, waitsFirst, []uint64{2, 4, 6, 8, 10}},
		{"n=2/only-0", 2, 10, onlyZero, []uint64{3, 5, 7, 9}},
		{"n=3/alternating-2-first", 3, 12, endsFirst, []uint64{3, 7, 9}},
		{"n=3/alternating-0-first", 3, 12, waitsFirst, []uint64{4, 6, 10, 12}},
		{"n=3/only-0", 3, 12, onlyZero, []uint64{4, 7, 10}},
		{"n=32/alternating-2-first", 32, 100, endsFirst, []uint64{33, 65, 97}},
		{"n=32/alternating-0-first", 32, 100, waitsFirst, []uint64{32, 64, 96}},
		{"n=32/only-0", 32, 100, onlyZero, []uint64{33, 65, 97}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got []uint64
			var prev types.Round
			last := uint64(0)
			for seq := uint64(1); seq <= c.commits; seq++ {
				if checkpointDue(c.n, seq, c.anchor(seq), prev) {
					if gap := seq - last; gap > c.n+1 {
						t.Fatalf("cut at seq %d is %d commits after the one before", seq, gap)
					}
					got, last = append(got, seq), seq
				}
				prev = c.anchor(seq)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("cuts at %v, want %v", got, c.want)
			}
			if c.n > 1 && c.anchor(2)%4 != c.anchor(1)%4 {
				// Alternating anchors: every cut is at a commit that ends the
				// fast phase.
				for _, seq := range got {
					if a := c.anchor(seq); a%4 != 2 {
						t.Fatalf("cut at seq %d, anchor round %d ≢ 2 (mod 4)", seq, a)
					}
				}
			}

			var saved []uint64
			x := NewExecutor(NewKVState(), Config{CheckpointInterval: c.n,
				OnCheckpoint: func(s Snapshot) { saved = append(saved, s.CommitSeq) }})
			for seq := uint64(1); seq <= c.commits; seq++ {
				x.ApplyCommit(makeCommit(seq, c.anchor(seq), [][]byte{PutOp([]byte{byte(seq)}, []byte("v"))}))
			}
			if !reflect.DeepEqual(saved, c.want) {
				t.Fatalf("executor cut at %v, want %v", saved, c.want)
			}
		})
	}
}

// TestRestartKeepsTheCheckpointGrid: an executor closed at a seq that is
// not a multiple of the interval writes a final checkpoint there; rebuilt
// from that checkpoint, it cuts at exactly the seqs an executor that never
// stopped cuts at, so its checkpoint tuples and signature shares keep
// matching the committee's.
func TestRestartKeepsTheCheckpointGrid(t *testing.T) {
	const n, closeAt, commits = 4, 10, 40
	stream := randomStream(rand.New(rand.NewSource(3)), commits)

	var want []uint64
	ref := NewExecutor(NewKVState(), Config{CheckpointInterval: n,
		OnCheckpoint: func(s Snapshot) { want = append(want, s.CommitSeq) }})
	for seq := 1; seq <= commits; seq++ {
		ref.ApplyCommit(stream[seq])
	}

	store := &recordingStore{}
	first := NewExecutor(NewKVState(), Config{CheckpointInterval: n, Store: store})
	first.Start()
	for seq := 1; seq <= closeAt; seq++ {
		first.ApplyCommit(stream[seq])
	}
	first.Close()
	final, ok := store.Latest()
	if !ok || final.CommitSeq != closeAt {
		t.Fatalf("Close's final checkpoint is at seq %d (ok=%v), want %d", final.CommitSeq, ok, closeAt)
	}

	var got []uint64
	restarted := NewExecutor(NewKVState(), Config{CheckpointInterval: n, Store: store,
		OnCheckpoint: func(s Snapshot) { got = append(got, s.CommitSeq) }})
	if _, _, err := restarted.InstallLocal(final, acceptState); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= commits; seq++ {
		restarted.ApplyCommit(stream[seq]) // seqs up to closeAt are redeliveries
	}
	if len(got) == 0 || got[0] != closeAt {
		t.Fatalf("restarted executor announced %v, want the installed checkpoint at %d first", got, closeAt)
	}
	got = got[1:]
	var wantAfter []uint64
	for _, seq := range want {
		if seq > closeAt {
			wantAfter = append(wantAfter, seq)
		}
	}
	if !reflect.DeepEqual(got, wantAfter) {
		t.Fatalf("after a restart at seq %d the executor cut at %v; one that never stopped cut at %v", closeAt, got, wantAfter)
	}
	for _, seq := range wantAfter {
		a, _ := ref.RootAt(seq)
		b, _ := restarted.RootAt(seq)
		if a != b {
			t.Fatalf("root at seq %d differs after the restart", seq)
		}
	}
}
