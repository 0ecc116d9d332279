package rpc

import "sort"

// commitRing is the gateway's SSE resume window: recent commit events in
// ascending Seq order, oldest first. Two bounds evict, oldest-first: a count
// (depth events) and a byte budget over what the events retain — transaction
// IDs, payload bytes and their slice headers. The budget is what keeps a
// validator's memory a function of its load rather than its uptime: at
// thousands of tx/s a count alone lets the window grow to hundreds of
// megabytes of payloads. The newest floor events are exempt from the budget
// (never from the count): a replica bootstrapping from a certified snapshot
// needs the stream between that checkpoint and the live tail, which is up to
// two checkpoint intervals of commits.
//
// Not safe for concurrent use; the Gateway guards it with its mu.
type commitRing struct {
	buf    []CommitEvent // circular, len(buf) == depth
	head   int           // index of the oldest event
	n      int           // events retained
	bytes  int           // sum of eventBytes over the retained events
	floor  int
	budget int
}

func newCommitRing(depth, floor, budget int) *commitRing {
	return &commitRing{buf: make([]CommitEvent, depth), floor: min(depth, floor), budget: budget}
}

// eventBytes is what retaining ev costs beyond the ring's own slot: IDs,
// payload bytes and a slice header (24 bytes) per payload, the hex strings.
func eventBytes(ev *CommitEvent) int {
	b := len(ev.TxIDs)*8 + len(ev.Payloads)*24 + len(ev.CommitDigest) + len(ev.StateRoot)
	for _, p := range ev.Payloads {
		b += len(p)
	}
	return b
}

// push appends ev (the caller has checked it is the next in Seq order), then
// evicts down to the bounds.
func (r *commitRing) push(ev CommitEvent) {
	if r.n == len(r.buf) {
		r.evictOldest()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
	r.bytes += eventBytes(&ev)
	for r.bytes > r.budget && r.n > r.floor {
		r.evictOldest()
	}
}

func (r *commitRing) evictOldest() {
	slot := &r.buf[r.head]
	r.bytes -= eventBytes(slot)
	*slot = CommitEvent{} // release the payloads
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// at returns the i-th oldest retained event.
func (r *commitRing) at(i int) *CommitEvent {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// oldestSeq is the Seq of the oldest retained event (0 when empty).
func (r *commitRing) oldestSeq() uint64 {
	if r.n == 0 {
		return 0
	}
	return r.at(0).Seq
}

// tail appends to dst up to limit retained events with Seq >= next, oldest
// first. When next has aged out of the ring it reports the oldest retained
// Seq as gapOldest (0 otherwise) and starts there.
func (r *commitRing) tail(dst []CommitEvent, next uint64, limit int) (batch []CommitEvent, gapOldest uint64) {
	if oldest := r.oldestSeq(); oldest > next {
		gapOldest, next = oldest, oldest
	}
	start := sort.Search(r.n, func(i int) bool { return r.at(i).Seq >= next })
	for i := start; i < r.n && len(dst) < limit; i++ {
		dst = append(dst, *r.at(i))
	}
	return dst, gapOldest
}
