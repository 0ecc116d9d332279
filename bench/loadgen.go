package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hammerhead/pkg/client"
	"hammerhead/pkg/rpcapi"
)

// ---- generated inputs ----

func keyOf(k int) []byte { return []byte("acct-" + strconv.Itoa(100000+k)) }

// batch is one contiguous run of transactions that share an ID prefix: the
// set-up probe, the preload, or the measured schedule. Transaction i of a
// batch has ID prefix<<32 | i+1, writes key keys[i] and stores a value that
// names i, so a read-back can be traced to the write that produced it.
type batch struct {
	prefix uint32
	keys   []int32
	pad    string
	seen   []int64 // wall-clock UnixNano of the commit event; 0 = not seen
	dup    int     // IDs the stream delivered more than once
}

// idPrefix derives a batch's ID prefix from the run's seed and the batch's
// role. Every run starts from fresh processes and an empty ledger, so equal
// seeds may reuse IDs across runs; inside a run each batch gets its own
// prefix and the stream matcher rejects anything else as foreign.
func idPrefix(seed int64, workload, role string) uint32 {
	h := fnv.New32a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(workload + "/" + role))
	return h.Sum32() | 1 // never zero: ID 0 asks the gateway to assign one
}

func newBatch(rng *rand.Rand, prefix uint32, n int, sequentialKeys bool) *batch {
	b := &batch{prefix: prefix, keys: make([]int32, n), seen: make([]int64, n)}
	for i := range b.keys {
		if sequentialKeys {
			b.keys[i] = int32(i % keySpace)
		} else {
			b.keys[i] = int32(rng.Intn(keySpace))
		}
	}
	b.pad = strconv.FormatUint(rng.Uint64(), 36)
	return b
}

func (b *batch) id(i int) uint64 { return uint64(b.prefix)<<32 | uint64(i+1) }

func (b *batch) value(i int) []byte {
	return []byte(fmt.Sprintf("%08x/%d/%s", b.prefix, i, b.pad))
}

func (b *batch) txs(first, n int) []rpcapi.SubmitTx {
	out := make([]rpcapi.SubmitTx, n)
	for j := range out {
		i := first + j
		out[j] = rpcapi.SubmitTx{ID: b.id(i), Payload: client.PutPayload(keyOf(int(b.keys[i])), b.value(i))}
	}
	return out
}

// ---- commit-stream accounting ----

// commitStream follows validator 0's SSE commit stream for the life of a
// cluster and matches every transaction ID against the batches the generator
// registered. It checks what a subscriber is promised: contiguous sequence
// numbers, tx_count equal to the ID list (unless the gateway capped it), no
// ID twice, no ID nobody submitted.
type commitStream struct {
	mu         sync.RWMutex
	batches    map[uint32]*batch
	cancel     context.CancelFunc
	done       chan struct{}
	first      chan struct{} // closed at the first event
	firstOnce  sync.Once
	lastSeq    uint64
	events     int
	gaps       int // sequence numbers skipped or repeated
	miscounted int // events whose tx_count disagrees with an uncapped ID list
	unmatched  int // transactions behind a capped ID list: committed, identity unknown
	foreign    int // IDs outside every registered batch
	window     [2]int64
	windowTx   int // transactions committed while the window was open
	// The window's first and last commit event, and the first one's size:
	// commits arrive in batches, so the rate is read between events.
	windowFirst, windowLast int64
	windowFirstTx           int
	lastTxSeq               uint64
	streamErr               error
}

const gatewayIDCap = 1 << 14 // internal/rpc caps tx_ids per event; tx_count stays exact

func followCommits(cl *client.Client) *commitStream {
	ctx, cancel := context.WithCancel(context.Background())
	s := &commitStream{
		batches: map[uint32]*batch{}, cancel: cancel,
		done: make(chan struct{}), first: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		err := cl.StreamCommits(ctx, 0, s.onEvent)
		if err != nil && !errors.Is(err, context.Canceled) {
			s.mu.Lock()
			s.streamErr = err
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *commitStream) register(b *batch) {
	s.mu.Lock()
	s.batches[b.prefix] = b
	s.mu.Unlock()
}

// openWindow sets the interval in which committed transactions are counted
// for throughput and per-transaction cost.
func (s *commitStream) openWindow(from, to time.Time) {
	s.mu.Lock()
	s.window = [2]int64{from.UnixNano(), to.UnixNano()}
	s.mu.Unlock()
}

func (s *commitStream) committedInWindow() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.windowTx
}

// committedPerSecond is the commit rate inside the window: the transactions
// that followed the window's first commit event over the time from that event
// to the last. Counting whole events against the window's length instead
// would move by one event's worth (a fortieth of a 20-second window at two
// events a second) depending on where the window's edges fall between events.
func (s *commitStream) committedPerSecond() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.windowLast <= s.windowFirst {
		return 0
	}
	return float64(s.windowTx-s.windowFirstTx) / (float64(s.windowLast-s.windowFirst) / 1e9)
}

func (s *commitStream) onEvent(ev rpcapi.CommitEvent) error {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.firstOnce.Do(func() { close(s.first) })
	if s.events > 0 && ev.Seq != s.lastSeq+1 {
		s.gaps++
	}
	s.lastSeq = ev.Seq
	s.events++
	switch {
	case ev.TxCount == len(ev.TxIDs):
	case ev.TxCount > len(ev.TxIDs) && len(ev.TxIDs) == gatewayIDCap:
		s.unmatched += ev.TxCount - len(ev.TxIDs)
	default:
		s.miscounted++
	}
	if now >= s.window[0] && now < s.window[1] {
		if s.windowTx == 0 {
			s.windowFirst, s.windowFirstTx = now, ev.TxCount
		}
		s.windowLast = now
		s.windowTx += ev.TxCount
	}
	for _, id := range ev.TxIDs {
		b := s.batches[uint32(id>>32)]
		i := int(uint32(id)) - 1
		if b == nil || i < 0 || i >= len(b.seen) {
			s.foreign++
			continue
		}
		if b.seen[i] != 0 {
			b.dup++
			continue
		}
		b.seen[i] = now
		s.lastTxSeq = ev.Seq
	}
	return nil
}

// missing counts the batch's transactions not yet on the stream.
func (s *commitStream) missing(b *batch, accepted func(i int) bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for i, t := range b.seen {
		if t == 0 && accepted(i) {
			n++
		}
	}
	return n
}

// drain waits until every accepted transaction of b was seen, or timeout.
func (s *commitStream) drain(b *batch, accepted func(i int) bool, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		m := s.missing(b, accepted)
		if m == 0 || time.Now().After(deadline) {
			return m
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *commitStream) close() {
	s.cancel()
	<-s.done
}

// ---- the open-loop schedule ----

type opKind uint8

const (
	opPost opKind = iota
	opReadVerified
	opReadPlain
)

// op is one scheduled request and, after the run, its outcome. Every time is
// counted from the instant the request was due, so a stalled generator or
// server shows up as latency on the requests queued behind the stall.
type op struct {
	due    time.Duration // offset from the schedule's start
	kind   opKind
	target int // client index: validators 0..3, replica 4
	first  int // posts: first transaction index in the batch
	n      int // posts: transactions in this request
	key    int // reads: key number

	late     time.Duration // actual send - due
	done     time.Duration // response complete - due
	accepted int           // posts: transactions the gateway admitted
	err      error
}

// buildSchedule lays out posts and reads on one timeline. Posts come at a
// fixed interval and rotate over the validators; reads come at their own
// fixed interval, alternate between a validator and the replica, and every
// plainEvery-th one skips the proof so the traced run can price it.
func buildSchedule(w workload, total time.Duration, rng *rand.Rand, haveReplica bool, plainEvery int) ([]op, int) {
	var ops []op
	postEvery := time.Duration(float64(time.Second) * float64(w.Batch) / float64(w.TxPerSec))
	posts := int(total / postEvery)
	for i := 0; i < posts; i++ {
		ops = append(ops, op{due: time.Duration(i) * postEvery, kind: opPost,
			target: i % committeeSize, first: i * w.Batch, n: w.Batch})
	}
	if w.ReadsPerS > 0 {
		readEvery := time.Second / time.Duration(w.ReadsPerS)
		reads := int(total / readEvery)
		for i := 0; i < reads; i++ {
			o := op{due: time.Duration(i)*readEvery + readEvery/2, kind: opReadVerified,
				target: (i / 2) % committeeSize, key: rng.Intn(keySpace)}
			if haveReplica && i%2 == 1 {
				o.target = committeeSize
			}
			if plainEvery > 0 && i%plainEvery == plainEvery-1 {
				o.kind = opReadPlain
			}
			ops = append(ops, o)
		}
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	}
	return ops, posts * w.Batch
}

// readCheck validates what a read returned against what the generator wrote.
type readCheck func(key int, value []byte, found bool) error

// issuers is how many goroutines walk the schedule. Each takes the next
// request, sleeps until it is due, sends it and waits for the answer, so a
// request the server sits on delays one issuer, not the schedule; late
// records when even that was not enough.
const issuers = 32

// issue runs the schedule to its end. Every transaction is submitted once: an
// acknowledged transaction that never reaches the commit stream is a lost
// write, which scoreOps reports.
func issue(c *cluster, v *client.Verifier, b *batch, ops []op, start time.Time, check readCheck) {
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < issuers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				send(ctx, c, v, b, &ops[i], start, check)
			}
		}()
	}
	wg.Wait()
}

func send(ctx context.Context, c *cluster, v *client.Verifier, b *batch, o *op, start time.Time, check readCheck) {
	if d := time.Until(start.Add(o.due)); d > 0 {
		time.Sleep(d)
	}
	o.late = time.Since(start) - o.due
	switch o.kind {
	case opPost:
		resp, err := c.clients[o.target].SubmitTxs(ctx, b.txs(o.first, o.n))
		o.accepted, o.err = resp.Accepted, err
		if err == nil && resp.Rejected > 0 {
			o.err = fmt.Errorf("gateway rejected %d of %d transactions", resp.Rejected, o.n)
		}
	case opReadVerified:
		r, err := c.clients[o.target].VerifiedGetAt(ctx, 0, v, keyOf(o.key))
		if err == nil {
			err = check(o.key, r.Value, r.Found)
		}
		o.err = err
	case opReadPlain:
		r, err := c.clients[o.target].GetAt(ctx, 0, keyOf(o.key))
		if err == nil {
			err = check(o.key, r.Value, r.Found)
		}
		o.err = err
	}
	o.done = time.Since(start) - o.due
}

// acceptedIndex tells, per transaction of the schedule, whether its POST was
// acknowledged; only those are owed a commit.
func acceptedIndex(ops []op, nTx int) func(i int) bool {
	ok := make([]bool, nTx)
	for i := range ops {
		if o := &ops[i]; o.kind == opPost && o.err == nil {
			for t := o.first; t < o.first+o.n; t++ {
				ok[t] = true
			}
		}
	}
	return func(i int) bool { return ok[i] }
}

// parseValue recovers which write produced a stored value.
func parseValue(value []byte) (prefix uint32, index int, ok bool) {
	parts := strings.SplitN(string(value), "/", 3)
	if len(parts) != 3 {
		return 0, 0, false
	}
	p, err1 := strconv.ParseUint(parts[0], 16, 32)
	i, err2 := strconv.Atoi(parts[1])
	return uint32(p), i, err1 == nil && err2 == nil
}

// checkValue accepts a stored value only if one of the given batches wrote
// exactly these bytes to exactly this key.
func checkValue(batches []*batch, key int, value []byte, found bool) error {
	if !found {
		return fmt.Errorf("key %s not found", keyOf(key))
	}
	prefix, i, ok := parseValue(value)
	if !ok {
		return fmt.Errorf("key %s holds %q, which no generated write produced", keyOf(key), value)
	}
	for _, b := range batches {
		if b.prefix == prefix && i >= 0 && i < len(b.keys) {
			if int(b.keys[i]) != key || string(b.value(i)) != string(value) {
				return fmt.Errorf("key %s holds %q, written for %s", keyOf(key), value, keyOf(int(b.keys[i])))
			}
			return nil
		}
	}
	return fmt.Errorf("key %s holds %q from an unknown batch", keyOf(key), value)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
