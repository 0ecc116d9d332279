package rpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
	"weak"

	"hammerhead/internal/bullshark"
	"hammerhead/internal/dag"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// oracleEvent builds a commit event of a seeded random shape, the corners the
// JSON encoding tells apart included: no payloads (nil or empty list), nil
// and empty payloads beside full ones, no IDs, an upstream state root (a
// replica re-serving a stream).
func oracleEvent(rng *rand.Rand, seq uint64) rpcapi.CommitEvent {
	ev := rpcapi.CommitEvent{Seq: seq, Round: 2 * seq, CommitDigest: fmt.Sprintf("%064x", seq)}
	if rng.Intn(4) == 0 {
		ev.StateRoot = fmt.Sprintf("%064x", ^seq)
	}
	switch rng.Intn(6) {
	case 0:
		return ev // no payloads, no IDs
	case 1:
		ev.Payloads = [][]byte{}
		return ev
	}
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		var p []byte
		switch rng.Intn(5) {
		case 0: // nil: JSON null
		case 1:
			p = []byte{} // empty: JSON ""
		default:
			p = make([]byte, 1+rng.Intn(200))
			rng.Read(p)
		}
		ev.Payloads = append(ev.Payloads, p)
		if rng.Intn(3) > 0 {
			ev.TxIDs = append(ev.TxIDs, seq<<16|uint64(i))
		}
	}
	ev.TxCount = len(ev.Payloads) + rng.Intn(3)
	return ev
}

// deepCopy returns ev with payloads of its own, so the caller can scribble
// over them.
func deepCopy(ev rpcapi.CommitEvent) rpcapi.CommitEvent {
	if ev.Payloads != nil {
		ps := make([][]byte, len(ev.Payloads))
		for i, p := range ev.Payloads {
			if p != nil {
				ps[i] = append([]byte{}, p...)
			}
		}
		ev.Payloads = ps
	}
	return ev
}

type tailFunc func(dst []rpcapi.CommitEvent, next uint64, limit int, full bool) ([]rpcapi.CommitEvent, uint64)

// renderStream is what the stream loop writes for a subscriber resuming at
// next once it has caught up: a gap frame if next aged out, then every
// retained commit frame, taken limit at a time. check sees every batch.
func renderStream(t *testing.T, tail tailFunc, next uint64, limit int, full bool, check func([]rpcapi.CommitEvent)) []byte {
	t.Helper()
	var out bytes.Buffer
	var batch []rpcapi.CommitEvent
	for {
		var gap uint64
		batch, gap = tail(batch[:0], next, limit, full)
		if gap != 0 {
			if err := writeEvent(&out, "gap", strconv.FormatUint(gap-1, 10), rpcapi.GapEvent{Oldest: gap}); err != nil {
				t.Fatal(err)
			}
		}
		if len(batch) == 0 {
			return out.Bytes()
		}
		check(batch)
		for i := range batch {
			if err := writeEvent(&out, "commit", strconv.FormatUint(batch[i].Seq, 10), batch[i]); err != nil {
				t.Fatal(err)
			}
		}
		next = batch[len(batch)-1].Seq + 1
	}
}

// TestRingStreamMatchesOracle: the packed ring serves the stream the old ring
// of whole events served, byte for byte, plain and ?full=1 — nil and empty
// payloads, empty commits and upstream state roots included — through seeded
// pushes, count and budget evictions, the floor, resumes and gaps, when both
// charge the same bytes. Its payloads are copies (the caller's buffers are
// scribbled over after each push), each capped at its own length, and it
// accounts what the oracle does.
func TestRingStreamMatchesOracle(t *testing.T) {
	for i, c := range []struct{ depth, floor, budget int }{
		{1, 0, 1 << 40},    // every push evicts by count
		{17, 8, 1 << 40},   // count only, wrapping
		{300, 0, 1 << 40},  // neither bound: the slot array grows
		{300, 2, 1 << 10},  // the budget binds, the floor holds two
		{64, 8, 8 << 10},   // both bounds and the floor take turns
		{3, 8, 1 << 10},    // a floor above the depth
		{300, 8, 64 << 10}, // the budget binds after growth
	} {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		depth, floor, budget := c.depth, c.floor, c.budget
		ring := newCommitRing(depth, floor, budget)
		oracle := newOracleRing(depth, floor, budget)
		capped := func(batch []rpcapi.CommitEvent) {
			for _, ev := range batch {
				for i, p := range ev.Payloads {
					if cap(p) != len(p) {
						t.Fatalf("seed %d: commit %d payload %d has cap %d beyond its %d bytes: an append would overwrite the next", seed, ev.Seq, i, cap(p), len(p))
					}
				}
			}
		}
		seq := uint64(0)
		for step := 0; step < 200; step++ {
			seq += 1 + uint64(rng.Intn(3)) // sequences may skip (snapshot installs)
			ev := oracleEvent(rng, seq)
			mine := deepCopy(ev)
			ring.push(packCommit(mine))
			for _, p := range mine.Payloads {
				for i := range p {
					p[i] ^= 0xff
				}
			}
			oracle.push(ev)
			if ring.n != oracle.n || ring.bytes != oracle.bytes || ring.oldestSeq() != oracle.oldestSeq() {
				t.Fatalf("seed %d seq %d: ring holds %d commits / %d bytes from %d, oracle %d / %d from %d",
					seed, seq, ring.n, ring.bytes, ring.oldestSeq(), oracle.n, oracle.bytes, oracle.oldestSeq())
			}
			// A resume before the window (a gap), one inside it and one at
			// the tail, each plain and full, in a random batch size.
			oldest := oracle.oldestSeq()
			for _, next := range []uint64{oldest - uint64(rng.Intn(2)), oldest + uint64(rng.Intn(int(seq-oldest)+1)), seq + uint64(rng.Intn(2))} {
				limit := []int{streamBatch, 3}[rng.Intn(2)]
				for _, full := range []bool{false, true} {
					want := renderStream(t, oracle.tail, next, limit, full, func([]rpcapi.CommitEvent) {})
					got := renderStream(t, ring.tail, next, limit, full, capped)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d seq %d resume %d full %v limit %d: stream differs\n got %q\nwant %q", seed, seq, next, full, limit, got, want)
					}
				}
			}
		}
	}
}

// TestRingHoldsWhatItCounts: what the ring charges its budget is what it
// keeps alive. Every payload here aliases a 4 KiB frame, as a peer's decoded
// certificate does; after the commits are observed and the test drops its
// references, every frame must be collectable, and the live heap the
// gateway gained must be the bytes the ring counts plus its slot array, which
// is at most twice the commits it holds. When
// the ring kept the aliases, it held the whole frames — 16 payloads of 20
// bytes pinned 4 KiB — while counting 52 bytes per payload.
func TestRingHoldsWhatItCounts(t *testing.T) {
	const (
		commits       = 600
		framesPer     = 4
		frameSize     = 4 << 10
		txPerFrame    = 16
		payloadSize   = 20 // a small KV put
		slackBytes    = 64 << 10
		countedSlack8 = 8 // size-class rounding: up to an eighth of what is counted
	)
	g, _, _, _ := newTestGateway(t, func(c *Config) { c.RootAt = nil })
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	frames := make([]weak.Pointer[byte], 0, commits*framesPer)
	observe := func(seq uint64) {
		sub := bullshark.CommittedSubDAG{Index: seq}
		for f := 0; f < framesPer; f++ {
			frame := make([]byte, frameSize)
			frames = append(frames, weak.Make(&frame[0]))
			batch := &types.Batch{}
			for i := 0; i < txPerFrame; i++ {
				off := 512 + i*200
				p := frame[off : off+payloadSize : off+payloadSize]
				p[0] = byte(seq)
				batch.Transactions = append(batch.Transactions, types.Transaction{ID: seq<<16 | uint64(f*txPerFrame+i), Payload: p})
			}
			sub.Vertices = append(sub.Vertices, dag.NewVertex(types.Round(2*seq-1), types.ValidatorID(f), nil, batch, 0))
		}
		sub.Anchor = dag.NewVertex(types.Round(2*seq), 0, nil, nil, 0)
		sub.Vertices = append(sub.Vertices, sub.Anchor)
		g.ObserveCommit(sub)
	}

	before := liveHeap()
	for seq := uint64(1); seq <= commits; seq++ {
		observe(seq)
	}
	after := liveHeap()

	g.mu.Lock()
	n, counted, nSlots := g.ring.n, int64(g.ring.bytes), cap(g.ring.buf)
	slots := int64(nSlots) * int64(unsafe.Sizeof(g.ring.buf[0]))
	g.mu.Unlock()
	if n != commits {
		t.Fatalf("ring holds %d commits, want all %d (the budget must not bind here)", n, commits)
	}
	if nSlots > 2*n {
		t.Fatalf("%d slots for %d commits: the slot array must grow on demand, not be allocated at historyDepth", nSlots, n)
	}
	alive := 0
	for _, w := range frames {
		if w.Value() != nil {
			alive++
		}
	}
	gained := after - before
	t.Logf("%d commits: counted %d B + %d B of slots; live heap gained %d B; %d of %d frames reachable",
		n, counted, slots, gained, alive, len(frames))
	if alive != 0 {
		t.Fatalf("%d of %d frames are still reachable: the ring's payloads alias the frames they arrived in", alive, len(frames))
	}
	if limit := counted + counted/countedSlack8 + slots + slackBytes; gained > limit {
		t.Fatalf("the ring keeps %d B live but counts %d B (+ %d B of slots): it holds more than it charges", gained, counted, slots)
	}
	if gained < counted-counted/countedSlack8-slackBytes {
		t.Fatalf("the ring keeps %d B live but counts %d B: it charges for more than it holds", gained, counted)
	}
	runtime.KeepAlive(g)
}
