package rpc

import (
	"sort"

	"hammerhead/pkg/rpcapi"
)

// oracleRing is the resume window as the gateway kept it before payloads
// were packed into one block per commit: a preallocated circular buffer of
// whole CommitEvents whose payloads are whatever slices the caller handed in.
// It charges its budget compactCost, not the old 24 bytes per payload slice
// header, so it evicts as commitRing does and the two must serve the same
// stream byte for byte.
type oracleRing struct {
	buf    []rpcapi.CommitEvent // circular, len(buf) == depth
	head   int                  // index of the oldest event
	n      int                  // events retained
	bytes  int                  // sum of compactCost over the retained events
	floor  int
	budget int
}

func newOracleRing(depth, floor, budget int) *oracleRing {
	return &oracleRing{buf: make([]rpcapi.CommitEvent, depth), floor: min(depth, floor), budget: budget}
}

// compactCost is retainedCommit.heldBytes of the commit packCommit(*ev)
// builds: 8 bytes per ID, the payload bytes, 4 bytes per payload offset, the
// hex strings.
func compactCost(ev *rpcapi.CommitEvent) int {
	b := cap(ev.TxIDs)*8 + len(ev.Payloads)*4 + len(ev.CommitDigest) + len(ev.StateRoot)
	for _, p := range ev.Payloads {
		b += len(p)
	}
	return b
}

func (r *oracleRing) push(ev rpcapi.CommitEvent) {
	if r.n == len(r.buf) {
		r.evictOldest()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
	r.bytes += compactCost(&ev)
	for r.bytes > r.budget && r.n > r.floor {
		r.evictOldest()
	}
}

func (r *oracleRing) evictOldest() {
	slot := &r.buf[r.head]
	r.bytes -= compactCost(slot)
	*slot = rpcapi.CommitEvent{} // release the payloads
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

func (r *oracleRing) at(i int) *rpcapi.CommitEvent {
	return &r.buf[(r.head+i)%len(r.buf)]
}

func (r *oracleRing) oldestSeq() uint64 {
	if r.n == 0 {
		return 0
	}
	return r.at(0).Seq
}

// tail is the old ring's tail; the old stream loop then stripped the
// payloads for plain subscribers, which full=false does here.
func (r *oracleRing) tail(dst []rpcapi.CommitEvent, next uint64, limit int, full bool) (batch []rpcapi.CommitEvent, gapOldest uint64) {
	if oldest := r.oldestSeq(); oldest > next {
		gapOldest, next = oldest, oldest
	}
	start := sort.Search(r.n, func(i int) bool { return r.at(i).Seq >= next })
	for i := start; i < r.n && len(dst) < limit; i++ {
		dst = append(dst, *r.at(i))
		if !full {
			dst[len(dst)-1].Payloads = nil
		}
	}
	return dst, gapOldest
}
