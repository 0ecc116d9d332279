package merkle

import (
	"crypto/sha256"
	"encoding/binary"

	"hammerhead/internal/types"
)

// refTree is the implementation this package had before writes went in place
// and hashes became lazy: an immutable trie that path-copies and re-hashes
// every node from the root to the touched leaf on every write. It is kept as
// the oracle the property tests and FuzzTreeOps compare Tree against — same
// roots, same proofs, same walk order, for any op sequence — and it hashes
// through types.HashBytes, so it also pins the preimage bytes Tree now
// assembles by hand.
type refTree struct {
	root *refNode
	size int
}

type refNode struct {
	hash types.Digest

	bit         int
	left, right *refNode

	leaf    bool
	keyHash [32]byte
	key     []byte
	value   []byte
	version uint64
}

func refLeafHash(keyHash *[32]byte, key, value []byte, version uint64) types.Digest {
	var ver [8]byte
	binary.BigEndian.PutUint64(ver[:], version)
	return types.HashBytes([]byte{0x00}, keyHash[:], key, value, ver[:])
}

func refInnerHash(bit int, left, right types.Digest) types.Digest {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(bit))
	return types.HashBytes([]byte{0x01}, b[:], left[:], right[:])
}

func newRefLeaf(keyHash [32]byte, key, value []byte, version uint64) *refNode {
	return &refNode{
		hash:    refLeafHash(&keyHash, key, value, version),
		leaf:    true,
		keyHash: keyHash,
		key:     key,
		value:   value,
		version: version,
	}
}

func newRefInner(bit int, left, right *refNode) *refNode {
	return &refNode{hash: refInnerHash(bit, left.hash, right.hash), bit: bit, left: left, right: right}
}

func newRefTree() *refTree { return &refTree{} }

func (t *refTree) Len() int { return t.size }

func (t *refTree) Root() types.Digest {
	if t.root == nil {
		return types.HashBytes([]byte("hammerhead/merkle/empty/v1"))
	}
	return t.root.hash
}

func (t *refTree) Freeze() *refTree { return &refTree{root: t.root, size: t.size} }

func (t *refTree) Get(key []byte) (value []byte, version uint64, ok bool) {
	if t.root == nil {
		return nil, 0, false
	}
	kh := sha256.Sum256(key)
	n := t.root
	for !n.leaf {
		if bitAt(&kh, n.bit) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n.keyHash != kh {
		return nil, 0, false
	}
	return n.value, n.version, true
}

func (t *refTree) Insert(key, value []byte, version uint64) {
	kh := sha256.Sum256(key)
	if t.root == nil {
		t.root = newRefLeaf(kh, key, value, version)
		t.size = 1
		return
	}
	n := t.root
	for !n.leaf {
		if bitAt(&kh, n.bit) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n.keyHash == kh {
		t.root = refReplaceLeaf(t.root, &kh, key, value, version)
		return
	}
	diff := firstDiffBit(&n.keyHash, &kh)
	t.root = refSplice(t.root, kh, key, value, version, diff)
	t.size++
}

func refReplaceLeaf(n *refNode, kh *[32]byte, key, value []byte, version uint64) *refNode {
	if n.leaf {
		return newRefLeaf(*kh, key, value, version)
	}
	if bitAt(kh, n.bit) == 0 {
		return newRefInner(n.bit, refReplaceLeaf(n.left, kh, key, value, version), n.right)
	}
	return newRefInner(n.bit, n.left, refReplaceLeaf(n.right, kh, key, value, version))
}

func refSplice(n *refNode, kh [32]byte, key, value []byte, version uint64, diff int) *refNode {
	if n.leaf || n.bit > diff {
		nl := newRefLeaf(kh, key, value, version)
		if bitAt(&kh, diff) == 0 {
			return newRefInner(diff, nl, n)
		}
		return newRefInner(diff, n, nl)
	}
	if bitAt(&kh, n.bit) == 0 {
		return newRefInner(n.bit, refSplice(n.left, kh, key, value, version, diff), n.right)
	}
	return newRefInner(n.bit, n.left, refSplice(n.right, kh, key, value, version, diff))
}

func (t *refTree) Delete(key []byte) bool {
	if t.root == nil {
		return false
	}
	kh := sha256.Sum256(key)
	nr, ok := refDeleteNode(t.root, &kh)
	if !ok {
		return false
	}
	t.root = nr
	t.size--
	return true
}

func refDeleteNode(n *refNode, kh *[32]byte) (*refNode, bool) {
	if n.leaf {
		if n.keyHash == *kh {
			return nil, true
		}
		return n, false
	}
	if bitAt(kh, n.bit) == 0 {
		nl, ok := refDeleteNode(n.left, kh)
		if !ok {
			return n, false
		}
		if nl == nil {
			return n.right, true
		}
		return newRefInner(n.bit, nl, n.right), true
	}
	nr, ok := refDeleteNode(n.right, kh)
	if !ok {
		return n, false
	}
	if nr == nil {
		return n.left, true
	}
	return newRefInner(n.bit, n.left, nr), true
}

func (t *refTree) Walk(fn func(key, value []byte, version uint64) bool) {
	refWalk(t.root, fn)
}

func refWalk(n *refNode, fn func(key, value []byte, version uint64) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf {
		return fn(n.key, n.value, n.version)
	}
	return refWalk(n.left, fn) && refWalk(n.right, fn)
}

func (t *refTree) Prove(key []byte) Proof {
	if t.root == nil {
		return Proof{}
	}
	kh := sha256.Sum256(key)
	var steps []ProofStep
	n := t.root
	for !n.leaf {
		if bitAt(&kh, n.bit) == 0 {
			steps = append(steps, ProofStep{Bit: uint16(n.bit), Sibling: n.right.hash})
			n = n.left
		} else {
			steps = append(steps, ProofStep{Bit: uint16(n.bit), Sibling: n.left.hash})
			n = n.right
		}
	}
	return Proof{
		Leaf:  &ProofLeaf{Key: n.key, Value: n.value, Version: n.version},
		Steps: steps,
	}
}
