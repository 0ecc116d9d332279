package rpc

import (
	"hammerhead/pkg/rpcapi"
	"math"
	"sort"
)

// commitRing is the gateway's SSE resume window: recent commits in ascending
// Seq order, oldest first. Two bounds evict, oldest-first: a count (depth
// commits) and a byte budget over what the retained commits hold — see
// retainedCommit.heldBytes. The budget is what keeps a validator's memory a
// function of its load rather than its uptime: at thousands of tx/s a count
// alone lets the window grow to hundreds of megabytes of payloads. Two kinds
// of commit are exempt from the budget (never from the count): the newest
// floor ones, and every one with a Seq above keepAbove. The gateway sets that
// to the older of the last two certified checkpoints it was told of, because
// a replica bootstrapping from a certified snapshot needs the stream from
// that checkpoint on, and the snapshot it is served may be the one before the
// newest.
//
// The slot array grows on demand, doubling up to depth, so a window the
// budget holds to a few hundred commits never pays for depth slots.
//
// Not safe for concurrent use; the Gateway guards it with its mu.
type commitRing struct {
	buf    []retainedCommit // circular once len(buf) == depth
	head   int              // index of the oldest commit
	n      int              // commits retained
	bytes  int              // sum of heldBytes over the retained commits
	depth  int
	floor  int
	budget int
	// keepAbove is the Seq above which commits are exempt from the budget
	// (math.MaxUint64: none).
	keepAbove uint64
}

// minRingSlots is the slot array's first allocation.
const minRingSlots = 16

func newCommitRing(depth, floor, budget int) *commitRing {
	return &commitRing{depth: depth, floor: min(depth, floor), budget: budget, keepAbove: math.MaxUint64}
}

// nilPayload marks an end offset whose payload was nil rather than empty: the
// two encode differently in JSON (null vs ""), and a ?full=1 stream must
// carry what was committed. The top bit of a 4-byte offset is free while a
// commit's payloads total under 2 GiB: 32 batches at the transport's 64 MiB
// frame limit, three orders of magnitude past the byte budget.
const nilPayload = 1 << 31

// retainedCommit is one commit as the ring keeps it: the event without its
// payloads, and the payloads copied once into one block. The copy is what
// lets a peer's certificate frame, which its decoded payloads point into, be
// collected once the DAG prunes it; one block with a 4-byte offset per
// payload keeps the copy smaller than a 24-byte slice header per payload.
type retainedCommit struct {
	ev    rpcapi.CommitEvent // Payloads always nil
	block []byte             // the payloads back to back
	ends  []uint32           // ends[i] is payload i's end offset in block, | nilPayload when nil
}

// newRetainedCommit starts a commit whose payloads will total blockBytes
// bytes over txs transactions; addPayload fills it.
func newRetainedCommit(ev rpcapi.CommitEvent, txs, blockBytes int) retainedCommit {
	ev.Payloads = nil
	// block is non-nil even when empty: an empty payload sliced out of it must
	// stay empty, not become nil.
	return retainedCommit{ev: ev, block: make([]byte, 0, blockBytes), ends: make([]uint32, 0, txs)}
}

// packCommit copies ev's payloads into a retainedCommit.
func packCommit(ev rpcapi.CommitEvent) retainedCommit {
	size := 0
	for _, p := range ev.Payloads {
		size += len(p)
	}
	c := newRetainedCommit(ev, len(ev.Payloads), size)
	for _, p := range ev.Payloads {
		c.addPayload(p)
	}
	return c
}

// addPayload appends one payload to the block.
func (c *retainedCommit) addPayload(p []byte) {
	c.block = append(c.block, p...)
	end := uint32(len(c.block))
	if p == nil {
		end |= nilPayload
	}
	c.ends = append(c.ends, end)
}

// heldBytes is what retaining c costs beyond its slot: 8 bytes per
// transaction ID, the payload block, 4 bytes per payload offset, and the hex
// strings — every byte c references, and nothing it shares.
func (c *retainedCommit) heldBytes() int {
	return 8*cap(c.ev.TxIDs) + cap(c.block) + 4*cap(c.ends) + len(c.ev.CommitDigest) + len(c.ev.StateRoot)
}

// event rebuilds the commit's stream event. With full, its Payloads are
// sub-slices of the block, each capped at its own end so an append to one
// can never write into the next.
func (c *retainedCommit) event(full bool) rpcapi.CommitEvent {
	ev := c.ev
	if !full || len(c.ends) == 0 {
		return ev
	}
	ev.Payloads = make([][]byte, len(c.ends))
	start := uint32(0)
	for i, end := range c.ends {
		if end&nilPayload != 0 {
			continue
		}
		ev.Payloads[i] = c.block[start:end:end]
		start = end
	}
	return ev
}

// push appends c (the caller has checked it is the next in Seq order), then
// evicts down to the bounds.
func (r *commitRing) push(c retainedCommit) {
	if r.n == len(r.buf) {
		if len(r.buf) < r.depth {
			r.grow()
		} else {
			r.evictOldest()
		}
	}
	r.bytes += c.heldBytes()
	r.buf[(r.head+r.n)%len(r.buf)] = c
	r.n++
	r.trim()
}

// keepCommitsAbove exempts every commit with a Seq above seq from the budget,
// instead of those above the previous mark, and evicts what the budget then
// no longer spares.
func (r *commitRing) keepCommitsAbove(seq uint64) {
	r.keepAbove = seq
	r.trim()
}

// trim evicts the oldest commits while the ring holds more than its budget
// and the oldest is not exempt.
func (r *commitRing) trim() {
	for r.bytes > r.budget && r.n > r.floor && r.at(0).ev.Seq <= r.keepAbove {
		r.evictOldest()
	}
}

// grow doubles the full slot array, up to depth, unrolling the circle so the
// oldest commit lands at index 0.
func (r *commitRing) grow() {
	buf := make([]retainedCommit, min(max(2*len(r.buf), minRingSlots), r.depth))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

func (r *commitRing) evictOldest() {
	slot := &r.buf[r.head]
	r.bytes -= slot.heldBytes()
	*slot = retainedCommit{} // release the block
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// at returns the i-th oldest retained commit.
func (r *commitRing) at(i int) *retainedCommit {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// oldestSeq is the Seq of the oldest retained commit (0 when empty).
func (r *commitRing) oldestSeq() uint64 {
	if r.n == 0 {
		return 0
	}
	return r.at(0).ev.Seq
}

// tail appends to dst the events of up to limit retained commits with Seq >=
// next, oldest first, with payloads only when full. When next has aged out of
// the ring it reports the oldest retained Seq as gapOldest (0 otherwise) and
// starts there.
func (r *commitRing) tail(dst []rpcapi.CommitEvent, next uint64, limit int, full bool) (batch []rpcapi.CommitEvent, gapOldest uint64) {
	if oldest := r.oldestSeq(); oldest > next {
		gapOldest, next = oldest, oldest
	}
	start := sort.Search(r.n, func(i int) bool { return r.at(i).ev.Seq >= next })
	for i := start; i < r.n && len(dst) < limit; i++ {
		dst = append(dst, r.at(i).event(full))
	}
	return dst, gapOldest
}
