package merkle

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hammerhead/internal/types"
)

// model runs one op sequence against Tree and the reference implementation
// in lockstep. It holds a pool of handle pairs — pairs[0] is the live tree,
// the rest came out of Freeze — and after every step compares every pair:
// whatever the live tree does in place must never show through a frozen
// handle, and a frozen handle that is written to must fork exactly like the
// reference's path-copying one does.
type model struct {
	tb   testing.TB
	keys int // inserts draw from [0, keys); reads and deletes reach past it
	// eager compares roots and proofs after every step, which also flushes
	// the tree after every step. With it off, only the sequence's own Root,
	// Prove and Freeze ops flush, so hashes stay deferred across many writes
	// the way the executor leaves them between checkpoints.
	eager bool
	pairs []*pair
	step  int
	rng   *rand.Rand
	walk  []walked
}

type pair struct {
	tree *Tree
	ref  *refTree
	// frozen is set while the pair is exactly what Freeze returned; root is
	// what it read then and must read for ever.
	frozen bool
	root   types.Digest
}

type walked struct {
	key, value []byte
	version    uint64
}

const (
	opInsert = iota // new key or overwrite, whichever the key makes it
	opInsert2
	opInsert3
	opDelete // present or absent
	opDelete2
	opRoot
	opFreeze
	opProve
	opGet
	opWalk
	opRelease
	opCount

	opBytes   = 4 // op, target handle, key index (2 bytes)
	modelPool = 5
)

func newModel(tb testing.TB, keys int, eager bool, seed int64) *model {
	return &model{
		tb: tb, keys: keys, eager: eager,
		pairs: []*pair{{tree: New(), ref: newRefTree()}},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// absentSpan is how far past the insertable keys reads and deletes reach:
// those indices are never present.
func (m *model) absentSpan() int { return m.keys/4 + 1 }

// apply interprets one encoded op and checks every handle afterwards.
func (m *model) apply(op [opBytes]byte) {
	m.step++
	// Three ops in four go to the live tree; the rest to any handle, so
	// frozen handles get frozen again, read and written.
	p := m.pairs[0]
	if op[1]&3 == 3 {
		p = m.pairs[int(op[1]>>2)%len(m.pairs)]
	}
	idx := int(op[2])<<8 | int(op[3])
	wide := key(idx % (m.keys + m.absentSpan()))
	switch op[0] % opCount {
	case opInsert, opInsert2, opInsert3:
		k := key(idx % m.keys)
		var v []byte // every eighth value is empty
		if op[3]&7 != 0 {
			v = []byte(fmt.Sprintf("v%d/%d", m.step, idx))
		}
		p.frozen = false
		p.tree.Insert(k, v, uint64(m.step))
		p.ref.Insert(k, v, uint64(m.step))
	case opDelete, opDelete2:
		_, _, present := p.ref.Get(wide)
		if present {
			p.frozen = false
		}
		// Deleting an absent key leaves a frozen handle frozen: it must not
		// write anything.
		if got := p.tree.Delete(wide); got != present {
			m.tb.Fatalf("step %d: Delete(%q) = %v, reference %v", m.step, wide, got, present)
		}
		p.ref.Delete(wide)
	case opRoot:
		m.sameRoot(p)
	case opFreeze:
		f := &pair{tree: p.tree.Freeze(), ref: p.ref.Freeze(), frozen: true}
		f.root = f.tree.Root()
		m.sameRoot(f)
		if len(m.pairs) == modelPool {
			m.pairs = append(m.pairs[:1], m.pairs[2:]...)
		}
		m.pairs = append(m.pairs, f)
	case opProve:
		m.sameProof(p, wide)
	case opGet:
		m.sameGet(p, wide)
	case opWalk:
		// A walk stopped early visits exactly the entries before the stop.
		stop, seen := idx%(p.ref.Len()+1), 0
		p.tree.Walk(func(_, _ []byte, _ uint64) bool { seen++; return seen < stop })
		if want := max(stop, min(1, p.ref.Len())); seen != want {
			m.tb.Fatalf("step %d: walk stopped at %d visited %d entries", m.step, stop, seen)
		}
	case opRelease:
		// The newest handle goes back to the live tree and is never read
		// again. Handles are appended as they are frozen, so none frozen from
		// it remains; whether the release takes effect (no Freeze of the live
		// tree since) is the tree's business, and either way the others must
		// not see the live tree's writes.
		if last := len(m.pairs) - 1; last > 0 {
			m.pairs[0].tree.Release(m.pairs[last].tree)
			m.pairs = m.pairs[:last]
			p = m.pairs[0]
		}
	}
	// The key this op named is where a write leaking from one handle into
	// another would show first, so every handle answers for it; the handle
	// the op went to is also walked in full, the others every 16th step.
	for _, q := range m.pairs {
		m.check(q, q == p || m.step%16 == 0, idx%m.keys, idx%(m.keys+m.absentSpan()))
	}
}

// check compares one handle with its reference: Len and Get always, the full
// Walk when asked (none of them flushes); root and proofs when the mode or
// the handle allows it — a frozen handle is clean, so reading its root and
// proofs changes nothing. Gets and proofs cover the given key indices, two
// random insertable ones and one that is never present.
func (m *model) check(p *pair, walk bool, keys ...int) {
	if p.tree.Len() != p.ref.Len() {
		m.tb.Fatalf("step %d: Len = %d, reference %d", m.step, p.tree.Len(), p.ref.Len())
	}
	keys = append(keys, m.rng.Intn(m.keys), m.rng.Intn(m.keys), m.keys+m.rng.Intn(m.absentSpan()))
	for _, i := range keys {
		m.sameGet(p, key(i))
	}
	if walk {
		m.sameWalk(p)
	}
	if p.frozen {
		if got := p.tree.Root(); got != p.root {
			m.tb.Fatalf("step %d: frozen handle's root moved: %s, recorded %s", m.step, got, p.root)
		}
	}
	if p.frozen || m.eager {
		m.sameRoot(p)
		for _, i := range keys {
			m.sameProof(p, key(i))
		}
	}
}

func (m *model) sameRoot(p *pair) {
	if got, want := p.tree.Root(), p.ref.Root(); got != want {
		m.tb.Fatalf("step %d: root %s, reference %s", m.step, got, want)
	}
}

func (m *model) sameGet(p *pair, k []byte) {
	v, ver, ok := p.tree.Get(k)
	rv, rver, rok := p.ref.Get(k)
	if ok != rok || ver != rver || !bytes.Equal(v, rv) {
		m.tb.Fatalf("step %d: Get(%q) = (%q, %d, %v), reference (%q, %d, %v)", m.step, k, v, ver, ok, rv, rver, rok)
	}
}

func (m *model) sameProof(p *pair, k []byte) {
	got, want := p.tree.Prove(k), p.ref.Prove(k)
	if !slices.Equal(got.Steps, want.Steps) || (got.Leaf == nil) != (want.Leaf == nil) || got.Leaf != nil &&
		(!bytes.Equal(got.Leaf.Key, want.Leaf.Key) || !bytes.Equal(got.Leaf.Value, want.Leaf.Value) || got.Leaf.Version != want.Leaf.Version) {
		m.tb.Fatalf("step %d: Prove(%q) = %+v, reference %+v", m.step, k, got, want)
	}
	root, entry, err := got.Verify(k)
	_, _, present := p.ref.Get(k)
	if err != nil || root != p.ref.Root() || entry.Found != present {
		m.tb.Fatalf("step %d: proof for %q folds to %s found=%v err=%v, reference root %s found=%v",
			m.step, k, root, entry.Found, err, p.ref.Root(), present)
	}
}

func (m *model) sameWalk(p *pair) {
	m.walk = m.walk[:0]
	p.ref.Walk(func(k, v []byte, ver uint64) bool {
		m.walk = append(m.walk, walked{k, v, ver})
		return true
	})
	i := 0
	p.tree.Walk(func(k, v []byte, ver uint64) bool {
		if i >= len(m.walk) || !bytes.Equal(k, m.walk[i].key) || !bytes.Equal(v, m.walk[i].value) || ver != m.walk[i].version {
			m.tb.Fatalf("step %d: walk entry %d = (%q, %q, %d), reference differs", m.step, i, k, v, ver)
		}
		i++
		return true
	})
	if i != len(m.walk) {
		m.tb.Fatalf("step %d: walk visited %d entries, reference %d", m.step, i, len(m.walk))
	}
}

// finish compares everything about every handle, flushing what the sequence
// left dirty.
func (m *model) finish() {
	m.eager = true
	for _, p := range m.pairs {
		m.check(p, true)
	}
}

// TestTreeMatchesReference drives seeded op sequences over key spaces from
// one key (the tree is a bare leaf or empty) to the benchmark's 10 000, in
// both flush modes.
func TestTreeMatchesReference(t *testing.T) {
	for _, tc := range []struct{ keys, preload, ops int }{
		{keys: 1, ops: 400},
		{keys: 2, ops: 600},
		{keys: 300, ops: 2500},
		{keys: 10_000, preload: 10_000, ops: 150},
	} {
		for _, eager := range []bool{true, false} {
			t.Run(fmt.Sprintf("keys=%d/eager=%v", tc.keys, eager), func(t *testing.T) {
				m := newModel(t, tc.keys, eager, int64(tc.keys))
				for i := 0; i < tc.preload; i++ {
					m.pairs[0].tree.Insert(key(i), val(i), uint64(i+1))
					m.pairs[0].ref.Insert(key(i), val(i), uint64(i+1))
				}
				var op [opBytes]byte
				for i := 0; i < tc.ops; i++ {
					m.rng.Read(op[:])
					m.apply(op)
				}
				m.finish()
			})
		}
	}
}

// FuzzTreeOps reads its input as an op sequence (opBytes per op) over a
// small key space and holds Tree to the reference after every op.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opInsert, 0, 0, 1, opFreeze, 0, 0, 0, opInsert, 0, 0, 1, opFreeze, 0, 0, 0, opFreeze, 7, 0, 0, opInsert, 7, 0, 2, opDelete, 0, 0, 1})
	seed := make([]byte, 64*opBytes)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newModel(t, 24, len(ops)%2 == 0, 1)
		for ; len(ops) >= opBytes; ops = ops[opBytes:] {
			m.apply([opBytes]byte(ops))
		}
		m.finish()
	})
}

// TestFreezeForks names the handle cases the random sequences only reach by
// chance: freezing twice with no write between, freezing a frozen handle,
// and writing to one.
func TestFreezeForks(t *testing.T) {
	live := buildTree(50)
	a, b := live.Freeze(), live.Freeze()
	root := a.Root()
	live.Insert(key(7), []byte("live"), 100)
	live.Insert(key(7), []byte("live again"), 101)
	c := a.Freeze()
	a.Insert(key(7), []byte("fork"), 200) // a is now a fork of its own
	a.Insert(key(7), []byte("fork again"), 201)
	d := a.Freeze()
	a.Delete(key(8))
	for name, h := range map[string]*Tree{"second freeze": b, "freeze of a frozen handle": c} {
		if v, _, _ := h.Get(key(7)); h.Root() != root || !bytes.Equal(v, val(7)) {
			t.Fatalf("%s: root %s value %q, want %s %q", name, h.Root(), v, root, val(7))
		}
	}
	want := buildTree(50)
	want.Insert(key(7), []byte("fork again"), 201)
	if d.Root() != want.Root() || d.Len() != 50 {
		t.Fatalf("frozen fork: root %s len %d, want %s 50", d.Root(), d.Len(), want.Root())
	}
	want.Delete(key(8))
	if a.Root() != want.Root() || a.Len() != 49 {
		t.Fatalf("fork: root %s len %d, want %s 49", a.Root(), a.Len(), want.Root())
	}
	if v, _, _ := live.Get(key(7)); !bytes.Equal(v, []byte("live again")) || live.Len() != 50 {
		t.Fatalf("live tree saw the fork's writes: %q", v)
	}
}

// TestGoldenRoot pins one root to the bytes the path-copying implementation
// produced for the same sequence (recorded at the commit before the rewrite):
// 5000 ops over 1000 keys, every fifth a delete, no flush until the end.
func TestGoldenRoot(t *testing.T) {
	const golden = "a2b0f21af48ef2bc4098f219fe201796a751509427d3a81fab38001e5f07c91e"
	tr := New()
	for i := 0; i < 5000; i++ {
		k := key(i * 7919 % 1000)
		if i%5 == 4 {
			tr.Delete(k)
		} else {
			tr.Insert(k, val(i), uint64(i+1))
		}
	}
	if got := tr.Root().Hex(); got != golden {
		t.Fatalf("root %s, want %s", got, golden)
	}
}

// TestFrozenReadersRaceFreeOfWriter runs one writer on the live tree against
// readers on the handles it freezes; it means something only under -race. A
// reader that finds a root, value or proof other than what the writer
// recorded at the freeze has seen an in-place write leak through.
func TestFrozenReadersRaceFreeOfWriter(t *testing.T) {
	type published struct {
		tree  *Tree
		root  types.Digest
		k     []byte
		v     []byte
		found bool
	}
	const readers, rounds, writes = 4, 60, 40
	handles := make(chan published)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range handles {
				for i := 0; i < 20; i++ {
					if got := h.tree.Root(); got != h.root {
						t.Errorf("frozen root %s, recorded %s", got, h.root)
					}
					p := h.tree.Prove(h.k)
					root, entry, err := p.Verify(h.k)
					if err != nil || root != h.root || entry.Found != h.found || !bytes.Equal(entry.Value, h.v) {
						t.Errorf("frozen proof for %q: root %s found=%v value %q err=%v", h.k, root, entry.Found, entry.Value, err)
					}
					if v, _, ok := h.tree.Get(h.k); ok != h.found || !bytes.Equal(v, h.v) {
						t.Errorf("frozen Get(%q) = %q, %v; recorded %q, %v", h.k, v, ok, h.v, h.found)
					}
					n := 0
					h.tree.Walk(func(_, _ []byte, _ uint64) bool { n++; return true })
					if n != h.tree.Len() {
						t.Errorf("frozen walk visited %d of %d", n, h.tree.Len())
					}
				}
			}
		}()
	}
	// What a handle must read comes from the reference, so that the readers,
	// not the writer, are the first to ask the handle for a hash: a Freeze
	// that left anything to flush would have them store into shared nodes.
	rng := rand.New(rand.NewSource(3))
	live, ref := New(), newRefTree()
	for round := 0; round < rounds; round++ {
		for w := 0; w < writes; w++ {
			if k := key(rng.Intn(250)); rng.Intn(4) == 0 {
				live.Delete(k)
				ref.Delete(k)
			} else {
				v, ver := val(round*writes+w), uint64(round*writes+w)
				live.Insert(k, v, ver)
				ref.Insert(k, v, ver)
			}
		}
		h := published{tree: live.Freeze(), root: ref.Root(), k: key(rng.Intn(250))}
		h.v, _, h.found = ref.Get(h.k)
		// Every reader gets every handle: several goroutines on one handle.
		for r := 0; r < readers; r++ {
			handles <- h
		}
	}
	close(handles)
	wg.Wait()
}

// TestWritesBetweenFreezesAllocateOncePerNode bounds the work, not the time:
// between two Freezes a node is copied at most once however often it is
// written, and hashing allocates nothing.
func TestWritesBetweenFreezesAllocateOncePerNode(t *testing.T) {
	const n = 10_000
	tr := buildTree(n)
	tr.Freeze()

	// The second overwrite of a key in one generation finds its whole path
	// owned: no node, no entry, nothing.
	k, v := key(42), val(43)
	tr.Insert(k, val(42), n+1)
	if allocs := testing.AllocsPerRun(100, func() { tr.Insert(k, v, n+2) }); allocs != 0 {
		t.Fatalf("second overwrite of a key between two Freezes allocated %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.Insert(k, v, n+2); tr.Root() }); allocs != 0 {
		t.Fatalf("overwrite plus Root allocated %.0f objects, want 0", allocs)
	}

	// Two overwrites of every key and one Freeze copy each node at most once
	// (2n-1 nodes and n entries). Copying per write, the root alone would be
	// copied 2n times and the whole path ~14 times per write.
	keys, vals := make([][]byte, n), make([][]byte, 2*n)
	for i := range keys {
		keys[i] = key(i)
		vals[i], vals[n+i] = val(n+i), val(2*n+i)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2*n; i++ {
			tr.Insert(keys[i%n], vals[i], uint64(2*n+i))
		}
		tr.Freeze()
	})
	if limit := float64(2*n - 1 + n + 1); allocs > limit {
		t.Fatalf("%d overwrites over %d keys and one Freeze allocated %.0f objects, want at most %.0f (one copy per node)",
			2*n, n, allocs, limit)
	}
	if want := buildTreeFrom(keys, vals[n:], 3*n); tr.Root() != want.Root() {
		t.Fatal("root after the overwrites differs from a tree built from the final entries")
	}
}

// TestReleaseHandsNodesBack names the Release cases: a handle released before
// any later Freeze gives the live tree its nodes back, so a key's first
// overwrite allocates nothing again; a release a later Freeze overtook, and
// one of another tree's handle, change nothing, and an older handle still
// reads what it froze.
func TestReleaseHandsNodesBack(t *testing.T) {
	const n = 1000
	tr := buildTree(n)
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = key(i), val(n+i)
	}
	next := 0
	// firstOverwrite is what overwriting a key not written since the build
	// allocates.
	firstOverwrite := func(tree *Tree) float64 {
		return testing.AllocsPerRun(1, func() {
			tree.Insert(keys[next], vals[next], uint64(n+next+1))
			next++
		})
	}
	if a := firstOverwrite(tr); a != 0 {
		t.Fatalf("an overwrite in the tree's own generation allocated %.0f objects", a)
	}
	h := tr.Freeze()
	if a := firstOverwrite(tr); a == 0 {
		t.Fatal("an overwrite of a node a frozen handle shares allocated nothing")
	}
	tr.Release(h)
	if a := firstOverwrite(tr); a != 0 {
		t.Fatalf("an overwrite after the only handle was released allocated %.0f objects", a)
	}

	older := tr.Freeze()
	olderRoot := older.Root()
	newer := tr.Freeze()
	tr.Release(older) // overtaken by newer
	if a := firstOverwrite(tr); a == 0 {
		t.Fatal("releasing an overtaken handle gave the live tree nodes a newer handle shares")
	}
	tr.Release(newer) // older still shares everything from before it
	if a := firstOverwrite(tr); a == 0 {
		t.Fatal("releasing the newer handle gave the live tree nodes an older handle shares")
	}
	if older.Root() != olderRoot {
		t.Fatal("an older handle saw the live tree's writes")
	}

	// The key overwritten last sits on a path of tr's current generation,
	// which a new handle now shares. A handle of another tree whose Freeze
	// opened the very stamp tr is at must not hand that path back.
	last := keys[next-1]
	was, _, _ := tr.Get(last)
	shared := tr.Freeze()
	other := buildTree(10)
	var foreign *Tree
	for foreign == nil || foreign.frozeAt < tr.stamp {
		foreign = other.Freeze()
	}
	tr.Release(foreign)
	tr.Insert(last, []byte("after the foreign release"), 3*n)
	if v, _, _ := shared.Get(last); !bytes.Equal(v, was) {
		t.Fatalf("a handle of another tree gave the live tree its nodes: a frozen handle reads %q, froze %q", v, was)
	}
}

// buildTreeFrom inserts keys[i] → vals[i] with versions firstVersion+i.
func buildTreeFrom(keys, vals [][]byte, firstVersion int) *Tree {
	t := New()
	for i := range keys {
		t.Insert(keys[i], vals[i], uint64(firstVersion+i))
	}
	return t
}
