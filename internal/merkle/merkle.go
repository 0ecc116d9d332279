// Package merkle implements the authenticated key-value tree behind the
// execution layer's state digest: a binary trie (crit-bit radix tree) over
// the SHA-256 hashes of keys, where every node carries a hash committing to
// its entire subtree.
//
// Properties the rest of the system builds on:
//
//   - A write costs one descent and no hashing. Insert/Delete only mark the
//     touched path dirty; Root, Prove and Freeze hash the dirty subtree once,
//     bottom-up, so Root is O(dirty nodes) — O(1) on a tree nobody wrote
//     since the last of them — and a node written a thousand times between
//     two checkpoints is hashed once. The execution layer reads the root once
//     per checkpoint, not once per write.
//   - Ownership instead of path copies. Every node carries the stamp of the
//     tree generation that created it. A node whose stamp is in the live
//     tree's owned range was created since the last Freeze, no frozen handle
//     can reach it, and it is updated in place; any other node is shared with
//     a frozen handle and is copied once, on first touch. Freeze bumps the
//     live tree's stamp and starts the range there, which disowns every node
//     at a stroke. A handle returned by
//     Freeze has stamp 0 and owns nothing: writing to one forks it, copying
//     every node it touches, every time. The stamp is a uint32, so that is
//     also where a live tree ends up after 2³² Freezes — slower from then
//     on, never incorrect. A validator freezes at most once per checkpoint;
//     a replica freezes once per commit, and at ten commits a second would
//     reach the horizon after about 13 years. A handle needed only briefly
//     — a checkpoint serialised off the writer's lock — can be handed back
//     with Release: if no Freeze came after it, the live tree owns its old
//     nodes again and goes back to writing them in place.
//   - Snapshots are a flush plus a pointer copy: Freeze hashes whatever is
//     dirty (no longer O(1)), then shares the node structure. A frozen tree
//     serves proofs against a past (e.g. quorum-certified) root while the
//     live tree advances; it is clean, and Root/Prove/Get/Walk on a clean
//     tree store nothing, so any number of goroutines may read one handle
//     while another goroutine writes the tree it was frozen from.
//   - Compact proofs: Prove(key) emits the sibling hashes along the key's
//     lookup path. The same proof shape serves inclusion AND exclusion —
//     descent by H(key)'s bits is deterministic, so the leaf it lands on
//     either holds the key (inclusion) or proves no leaf can (exclusion).
//
// Insert keeps key and value by reference and hashes them later, at the next
// Root/Prove/Freeze. A caller that reuses either buffer after Insert returns
// therefore corrupts the digest silently (the tree would commit to whatever
// the buffer holds at flush time); copy first, as the execution layer does.
//
// The tree is keyed on sha256(key) rather than the raw key so depth is
// balanced regardless of key distribution and proof size is bounded by the
// digest width (≤256 steps, ~log2(n) expected).
package merkle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/bits"

	"hammerhead/internal/types"
)

// Domain-separation tags: the first hashed part of every node preimage, so
// leaves, inner nodes and the empty tree can never collide structurally.
const (
	leafTag  = 0x00
	innerTag = 0x01
	emptyTag = "hammerhead/merkle/empty/v1"
)

// EmptyRoot is the root digest of a tree with no entries.
var EmptyRoot = types.HashBytes([]byte(emptyTag))

// node is one tree node — a leaf (leaf != nil) or an inner node splitting its
// subtree's keys at bit index bit of their key hashes (left: bit clear,
// right: bit set). Inner nodes are what a write copies (a leaf is replaced,
// never copied), so the entry lives behind a pointer and a node fits the
// 64-byte size class.
//
// Crit-bit invariant: bit indices strictly increase from root to leaf, and
// every key hash in a subtree agrees on all branch bits above it.
type node struct {
	// hash commits to the subtree; stale while dirty.
	hash        types.Digest
	left, right *node
	leaf        *entry
	// owner is the stamp of the tree generation that created the node; only a
	// tree whose owned range covers it may write the node (see Tree.stamp).
	owner uint32
	bit   uint16
	// dirty marks a hash that does not cover the node's current content. A
	// dirty node's ancestors are all dirty, and only its owner can reach it.
	dirty bool
}

// entry is a leaf's content.
type entry struct {
	keyHash [32]byte
	key     []byte
	value   []byte
	version uint64
}

// bitAt returns bit i (MSB-first) of a key hash.
func bitAt(h *[32]byte, i int) byte {
	return (h[i>>3] >> (7 - uint(i)&7)) & 1
}

// appendPart appends one preimage part the way types.HashBytes frames it: an
// 8-byte big-endian length, then the bytes.
func appendPart(b, part []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(part)))
	return append(b, part...)
}

// leafHash commits to the full entry: key hash, key, value and version. The
// digest is types.HashBytes(leafTag, keyHash, key, value, version); the
// preimage is assembled on the stack (entries past the buffer spill to the
// heap) so that hashing allocates nothing.
//
//hammerlint:deterministic
func leafHash(keyHash *[32]byte, key, value []byte, version uint64) types.Digest {
	var stack [256]byte
	b := appendPart(stack[:0], []byte{leafTag})
	b = appendPart(b, keyHash[:])
	b = appendPart(b, key)
	b = appendPart(b, value)
	b = binary.BigEndian.AppendUint64(b, 8)
	b = binary.BigEndian.AppendUint64(b, version)
	return sha256.Sum256(b)
}

// innerHash commits to the split bit and both children — the bit index is
// part of the preimage, so a proof path pins the exact descent structure. The
// digest is types.HashBytes(innerTag, bit, left, right), assembled on the
// stack like leafHash's.
//
//hammerlint:deterministic
func innerHash(bit int, left, right *types.Digest) types.Digest {
	var stack [4*8 + 1 + 2 + 2*types.DigestSize]byte
	b := appendPart(stack[:0], []byte{innerTag})
	b = binary.BigEndian.AppendUint64(b, 2)
	b = binary.BigEndian.AppendUint16(b, uint16(bit))
	b = appendPart(b, left[:])
	b = appendPart(b, right[:])
	return sha256.Sum256(b)
}

// Tree is the mutable handle over the node structure. Not safe for
// concurrent use; Freeze() hands out an independent read-only handle.
type Tree struct {
	root *node
	size int
	// stamp is this handle's current generation: nodes it creates carry it,
	// and it writes in place exactly the nodes stamped low through stamp.
	// Freeze bumps stamp and raises low to it; Release lowers low again. 0
	// owns nothing — the stamp of every frozen handle, and of a live tree
	// after 2^32 freezes, which from then on copies every node a write
	// touches, as a frozen handle does (slower, still correct).
	stamp, low uint32
	// line names the live tree a handle descends from, so Release trusts
	// only handles of its own tree. A handle Freeze returned also records the
	// stamp that Freeze opened and the live tree's low before it.
	line               *lineage
	frozeAt, lowBefore uint32
}

// lineage is a live tree's identity; it has a size so that two are never
// the same allocation.
type lineage struct{ _ byte }

// New returns an empty tree.
func New() *Tree { return &Tree{stamp: 1, low: 1, line: new(lineage)} }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// flush hashes the dirty part of the tree, bottom-up, each node once. A clean
// tree is left untouched — no store — which is what lets frozen handles be
// read concurrently.
func (t *Tree) flush() {
	if t.root != nil && t.root.dirty {
		rehash(t.root)
	}
}

func rehash(n *node) {
	if e := n.leaf; e != nil {
		n.hash = leafHash(&e.keyHash, e.key, e.value, e.version)
	} else {
		if n.left.dirty {
			rehash(n.left)
		}
		if n.right.dirty {
			rehash(n.right)
		}
		n.hash = innerHash(int(n.bit), &n.left.hash, &n.right.hash)
	}
	n.dirty = false
}

// Root returns the current root digest (EmptyRoot for an empty tree). It
// hashes what was written since the last Root/Prove/Freeze: O(dirty nodes),
// O(1) when there was nothing.
func (t *Tree) Root() types.Digest {
	if t.root == nil {
		return EmptyRoot
	}
	t.flush()
	return t.root.hash
}

// Freeze returns an immutable point-in-time handle sharing the current node
// structure: a flush, then a pointer copy. Further updates to t never affect
// the frozen tree — Freeze disowns every node t created so far, so t copies
// each on its next touch instead of writing it.
func (t *Tree) Freeze() *Tree {
	t.flush()
	h := &Tree{root: t.root, size: t.size, line: t.line, lowBefore: t.low}
	if t.stamp != 0 {
		t.stamp++
		t.low = t.stamp
		h.frozeAt = t.stamp
	}
	return h
}

// Release hands back a handle t.Freeze returned. If t has not been frozen
// since, t owns again every node it owned before that Freeze and writes them
// in place from now on; otherwise, or for a handle of another tree, nothing
// changes. The caller must be done with h and with every handle frozen from
// h: none of them may be read afterwards.
func (t *Tree) Release(h *Tree) {
	if h.line == t.line && h.frozeAt != 0 && h.frozeAt == t.stamp {
		t.low = h.lowBefore
	}
}

// Get returns the value and version stored under key.
func (t *Tree) Get(key []byte) (value []byte, version uint64, ok bool) {
	if t.root == nil {
		return nil, 0, false
	}
	kh := sha256.Sum256(key)
	e := t.find(&kh)
	if e.keyHash != kh {
		return nil, 0, false
	}
	return e.value, e.version, true
}

// find descends by kh's bits to the one leaf that could hold it. The tree
// must not be empty.
func (t *Tree) find(kh *[32]byte) *entry {
	n := t.root
	for n.leaf == nil {
		n = *n.child(kh)
	}
	return n.leaf
}

// child returns the slot of the inner node's child on kh's side.
func (n *node) child(kh *[32]byte) **node {
	if bitAt(kh, int(n.bit)) == 0 {
		return &n.left
	}
	return &n.right
}

// owns reports whether t created n since its last Freeze that was not
// released, which is when no other handle can reach n and t may write it in
// place.
func (t *Tree) owns(n *node) bool { return n.owner >= t.low && t.stamp != 0 }

// touch makes the inner node in *slot writable by t — copying it into t's
// generation unless t owns it — marks it dirty and returns it.
func (t *Tree) touch(slot **node) *node {
	n := *slot
	if !t.owns(n) {
		c := *n
		c.owner = t.stamp
		n = &c
		*slot = n
	}
	n.dirty = true
	return n
}

func (t *Tree) newLeaf(e entry) *node {
	return &node{leaf: &e, owner: t.stamp, dirty: true}
}

// Insert puts (key, value, version), replacing any existing entry. The tree
// keeps key and value by reference and hashes them at the next
// Root/Prove/Freeze: the caller must not mutate either afterwards (see the
// package comment; the execution layer copies payload-derived bytes first).
func (t *Tree) Insert(key, value []byte, version uint64) {
	e := entry{keyHash: sha256.Sum256(key), key: key, value: value, version: version}
	kh := &e.keyHash
	if t.root == nil {
		t.root = t.newLeaf(e)
		t.size = 1
		return
	}
	// First pass, read-only: the leaf kh's descent lands on tells whether
	// this is an overwrite and, if not, at which bit the new key splits off.
	diff := 256
	if at := t.find(kh); at.keyHash != *kh {
		diff = firstDiffBit(&at.keyHash, kh)
	}
	// Second pass: take the path down to that point into this generation.
	slot := &t.root
	for n := *slot; n.leaf == nil && int(n.bit) < diff; n = *slot {
		slot = t.touch(slot).child(kh)
	}
	if diff == 256 {
		// Overwrite. The old key slice goes with the old value: the two may
		// share one allocation.
		if n := *slot; t.owns(n) {
			*n.leaf = e
			n.dirty = true
		} else {
			*slot = t.newLeaf(e)
		}
		return
	}
	// Graft an inner node splitting at diff above whatever the descent
	// stopped on.
	in := &node{left: *slot, right: t.newLeaf(e), bit: uint16(diff), owner: t.stamp, dirty: true}
	if bitAt(kh, diff) == 0 {
		in.left, in.right = in.right, in.left
	}
	*slot = in
	t.size++
}

// firstDiffBit returns the index of the first differing bit of two distinct
// key hashes.
func firstDiffBit(a, b *[32]byte) int {
	for i := 0; i < 32; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	panic("merkle: firstDiffBit on equal hashes")
}

// Delete removes key, reporting whether it was present. Deleting an absent
// key touches nothing.
func (t *Tree) Delete(key []byte) bool {
	if t.root == nil {
		return false
	}
	kh := sha256.Sum256(key)
	if t.find(&kh).keyHash != kh {
		return false
	}
	t.size--
	// The leaf's sibling is hoisted into its parent's slot (crit-bit
	// contraction); the path above that slot goes dirty.
	slot := &t.root
	for n := *slot; n.leaf == nil; n = *slot {
		if (*n.child(&kh)).leaf != nil {
			if bitAt(&kh, int(n.bit)) == 0 {
				*slot = n.right
			} else {
				*slot = n.left
			}
			return true
		}
		slot = t.touch(slot).child(&kh)
	}
	t.root = nil // the only entry
	return true
}

// Walk visits every entry in key-hash order (deterministic; NOT key order).
// Returning false stops the walk.
func (t *Tree) Walk(fn func(key, value []byte, version uint64) bool) {
	walk(t.root, fn)
}

func walk(n *node, fn func(key, value []byte, version uint64) bool) bool {
	if n == nil {
		return true
	}
	if e := n.leaf; e != nil {
		return fn(e.key, e.value, e.version)
	}
	return walk(n.left, fn) && walk(n.right, fn)
}

// ProofStep is one inner node on a proof path: the bit index it splits on
// and the hash of the child NOT on the descent path. The descent side at
// each step is implied by H(key)'s bit, so it needs no encoding.
type ProofStep struct {
	Bit     uint16
	Sibling types.Digest
}

// ProofLeaf is the entry at the end of the descent path. For an inclusion
// proof its Key equals the proven key; for an exclusion proof it is the
// unrelated entry the key's descent path lands on.
type ProofLeaf struct {
	Key     []byte
	Value   []byte
	Version uint64
}

// Proof authenticates the presence or absence of one key against a root
// digest. Leaf == nil (with no steps) proves exclusion against EmptyRoot.
type Proof struct {
	Leaf  *ProofLeaf
	Steps []ProofStep // root → leaf order
}

// Prove returns the proof for key against the tree's current root. Always
// succeeds: an absent key yields an exclusion proof. Like Root, it first
// hashes whatever was written since the last flush.
func (t *Tree) Prove(key []byte) Proof {
	if t.root == nil {
		return Proof{}
	}
	t.flush()
	kh := sha256.Sum256(key)
	// Descend once for the depth, so the steps are one allocation of the
	// exact size (nil for a single-leaf tree).
	var steps []ProofStep
	depth := 0
	for n := t.root; n.leaf == nil; n = *n.child(&kh) {
		depth++
	}
	if depth > 0 {
		steps = make([]ProofStep, 0, depth)
	}
	n := t.root
	for n.leaf == nil {
		if bitAt(&kh, int(n.bit)) == 0 {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: n.right.hash})
			n = n.left
		} else {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: n.left.hash})
			n = n.right
		}
	}
	e := n.leaf
	return Proof{
		Leaf:  &ProofLeaf{Key: e.key, Value: e.value, Version: e.version},
		Steps: steps,
	}
}

// Entry is the outcome a verified proof attests to: the value and write
// version under the key (Found), or its certified absence (!Found).
type Entry struct {
	Value   []byte
	Version uint64
	Found   bool
}

// ErrInvalidProof is returned for structurally broken proofs.
var ErrInvalidProof = errors.New("merkle: invalid proof")

// Verify checks the proof's structure for key and returns the root digest it
// commits to plus the proven entry. The caller MUST compare the returned
// root against a trusted root (e.g. from a quorum-certified checkpoint) —
// a proof is meaningless until its root is matched against one.
//
// Soundness: every inner-node preimage commits to its split-bit index and
// both children, so a proof that folds to a trusted root is a real
// root-to-leaf path, and the fold places the running hash on the side
// selected by H(key)'s bit at each step — i.e. the path IS the key's
// deterministic lookup descent. The leaf it reaches therefore either holds
// the key (inclusion) or proves no leaf in the tree can (exclusion).
func (p *Proof) Verify(key []byte) (types.Digest, Entry, error) {
	if p.Leaf == nil {
		if len(p.Steps) != 0 {
			return types.Digest{}, Entry{}, ErrInvalidProof
		}
		// Exclusion against the empty tree.
		return EmptyRoot, Entry{}, nil
	}
	kh := sha256.Sum256(key)
	lh := sha256.Sum256(p.Leaf.Key)
	entry := Entry{}
	if lh == kh {
		if !bytes.Equal(p.Leaf.Key, key) {
			// sha256 collision between distinct keys — treat as invalid.
			return types.Digest{}, Entry{}, ErrInvalidProof
		}
		entry = Entry{Value: p.Leaf.Value, Version: p.Leaf.Version, Found: true}
	}
	// Bit indices must strictly increase root → leaf (tree invariant; also
	// bounds the path at the digest width).
	prev := -1
	for _, st := range p.Steps {
		if int(st.Bit) <= prev || int(st.Bit) >= 256 {
			return types.Digest{}, Entry{}, ErrInvalidProof
		}
		prev = int(st.Bit)
	}
	h := leafHash(&lh, p.Leaf.Key, p.Leaf.Value, p.Leaf.Version)
	for i := len(p.Steps) - 1; i >= 0; i-- {
		st := p.Steps[i]
		if bitAt(&kh, int(st.Bit)) == 0 {
			h = innerHash(int(st.Bit), &h, &st.Sibling)
		} else {
			h = innerHash(int(st.Bit), &st.Sibling, &h)
		}
	}
	return h, entry, nil
}
