// Package execution is the deterministic execution layer behind the commit
// sink: consensus orders sub-DAGs, the Executor applies their transactions to
// a KV ledger (KVState) on the goroutine that delivers the commits, and
// periodic checkpoints bound how much work a recovering or newly joining
// validator must replay. Snapshot state-sync (internal/engine's
// SnapshotRequest/SnapshotResponse) serves those checkpoints to nodes that
// fell behind the DAG's GC horizon, where certificate sync alone can no
// longer recover them.
//
// Everything in this package is a pure function of the commit stream: two
// validators feeding identical commit sequences into identical ledgers reach
// identical (commit seq, state root) pairs — the property the simnet
// convergence tests pin down, and the reason a snapshot taken on one
// validator can be installed on another and verified by recomputing the
// state digest.
package execution

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"hammerhead/internal/merkle"
	"hammerhead/internal/types"
	"hammerhead/internal/wire"
)

// Op bytes of the KVState transaction encoding.
const (
	opPut    = 'P'
	opDelete = 'D'
)

// MaxKeyLen is the largest key PutOp/DeleteOp can encode (the key length is
// a uint16 prefix).
const MaxKeyLen = 1<<16 - 1

// PutOp encodes a put of value under key as a KVState transaction payload.
// Panics on keys longer than MaxKeyLen — silently truncating the length
// prefix would make the op apply to a different key.
func PutOp(key, value []byte) []byte {
	if len(key) > MaxKeyLen {
		panic(fmt.Sprintf("execution: key length %d exceeds MaxKeyLen %d", len(key), MaxKeyLen))
	}
	out := make([]byte, 3+len(key)+len(value))
	out[0] = opPut
	binary.BigEndian.PutUint16(out[1:3], uint16(len(key)))
	copy(out[3:], key)
	copy(out[3+len(key):], value)
	return out
}

// DeleteOp encodes a delete of key as a KVState transaction payload. Panics
// on keys longer than MaxKeyLen (see PutOp).
func DeleteOp(key []byte) []byte {
	if len(key) > MaxKeyLen {
		panic(fmt.Sprintf("execution: key length %d exceeds MaxKeyLen %d", len(key), MaxKeyLen))
	}
	out := make([]byte, 3+len(key))
	out[0] = opDelete
	binary.BigEndian.PutUint16(out[1:3], uint16(len(key)))
	copy(out[3:], key)
	return out
}

// KVState is the state the Executor drives: a versioned key-value ledger that
// parses transaction payloads as put/delete ops (see PutOp/DeleteOp).
// Payloads that do not parse — including the empty payloads the latency
// experiments submit — are counted but have no KV effect, so any transaction
// stream is accepted.
//
// The ledger is backed by an authenticated Merkle tree (internal/merkle).
// Apply writes the tree without hashing anything; Root() hashes the nodes
// written since it (or Prove/Freeze) was last called, each once — the
// executor asks per checkpoint, so a key overwritten a hundred times between
// two checkpoints costs one leaf hash, not a hundred root paths — and any
// key's presence or absence can be proven against the root (see Prove /
// Freeze).
type KVState struct {
	tree *merkle.Tree
	// version counts applied KV ops; opaque counts non-KV transactions. Both
	// are part of the root, so state divergence is visible even for streams
	// of unparsable payloads.
	version uint64
	opaque  uint64
	// touched lists the keys written or deleted since the last Freeze, in
	// apply order and with repeats: what the checkpoint writer merges into
	// the previous checkpoint's bytes. A put's entry is the key slice the
	// trie holds. untracked says the list was dropped — it outgrew its
	// bound (see touch), or a Restore replaced the ledger under it — and the
	// next view is encoded in full. gen counts Freezes.
	touched   [][]byte
	untracked bool
	gen       uint64
}

// NewKVState returns an empty ledger.
func NewKVState() *KVState {
	return &KVState{tree: merkle.New()}
}

// Apply executes one transaction, deterministically: identical transaction
// sequences yield identical ledgers on every validator.
func (s *KVState) Apply(tx *types.Transaction) {
	p := tx.Payload
	if len(p) < 3 {
		s.opaque++
		return
	}
	keyLen := int(binary.BigEndian.Uint16(p[1:3]))
	if len(p) < 3+keyLen {
		s.opaque++
		return
	}
	switch p[0] {
	case opPut:
		s.version++
		// Copy key and value, in one allocation: payloads are shared with the
		// mempool/DAG, and the tree holds its inputs by reference and hashes
		// them only at the next Root. An empty value stays nil, as Restore
		// reads one back.
		buf := append([]byte(nil), p[3:]...)
		key, value := buf[:keyLen:keyLen], []byte(nil)
		if len(buf) > keyLen {
			value = buf[keyLen:]
		}
		s.tree.Insert(key, value, s.version)
		s.touch(key)
	case opDelete:
		s.version++
		key := p[3 : 3+keyLen]
		s.tree.Delete(key)
		// Copied: the payload is shared with the mempool and the DAG.
		s.touch(bytes.Clone(key))
	default:
		s.opaque++
	}
}

// touch records a key written since the last Freeze. A list that grows past
// a quarter of the ledger is dropped, and the next view is encoded in full:
// merging costs a trie lookup per write, and near half the ledger
// (BenchmarkCheckpointCut, 10 000 keys) it costs what the full encoding does.
// The bound also caps the list, and the old values it keeps alive, by the
// state it describes.
func (s *KVState) touch(key []byte) {
	if s.untracked {
		return
	}
	s.touched = append(s.touched, key)
	if len(s.touched) > s.tree.Len()/4 {
		s.touched, s.untracked = nil, true
	}
}

// Get returns the current value under key.
func (s *KVState) Get(key []byte) ([]byte, bool) {
	v, _, ok := s.tree.Get(key)
	return v, ok
}

// GetVersioned returns the value under key plus the global op version that
// last wrote it. The returned slice's bytes are never written again (an
// overwrite gives the entry a new slice), so callers may hold it across
// further applies.
func (s *KVState) GetVersioned(key []byte) (value []byte, version uint64, ok bool) {
	return s.tree.Get(key)
}

// Len returns the number of live keys.
func (s *KVState) Len() int { return s.tree.Len() }

// Version returns the number of KV ops applied.
func (s *KVState) Version() uint64 { return s.version }

// Root is the ledger's content digest: the op counters combined with the
// Merkle root. O(nodes written since the last Root/Prove/Freeze), O(1) when
// none were: the tree defers its hashing to here.
//
//hammerlint:deterministic
func (s *KVState) Root() types.Digest {
	return StateDigestFrom(s.version, s.opaque, s.tree.Root())
}

// MerkleRoot returns the authenticated tree's root alone (what Merkle proofs
// fold to; Root() additionally commits to the op counters).
func (s *KVState) MerkleRoot() types.Digest { return s.tree.Root() }

// Counters returns the op counters bound into Root().
func (s *KVState) Counters() (version, opaque uint64) { return s.version, s.opaque }

// Prove returns a Merkle inclusion/exclusion proof for key against the
// current tree root.
func (s *KVState) Prove(key []byte) merkle.Proof { return s.tree.Prove(key) }

// Freeze returns an immutable point-in-time view of the ledger: a Root()
// worth of hashing, then a pointer copy — the view shares the tree's nodes,
// and the live tree copies one the first time it writes it afterwards. With
// checkpoint certification on, the executor captures one per checkpoint so
// proof-carrying reads are served against the quorum-certified root while the
// live state advances.
//
// The view takes the keys written since the previous Freeze, and the ledger
// starts a new list.
func (s *KVState) Freeze() *FrozenKV {
	s.gen++
	f := &FrozenKV{tree: s.tree.Freeze(), version: s.version, opaque: s.opaque,
		gen: s.gen, touched: s.touched, tracked: !s.untracked}
	s.touched, s.untracked = make([][]byte, 0, len(s.touched)), false
	return f
}

// StateDigestFrom combines the op counters and the Merkle root into the
// KVState content digest — the StateDigest checkpoint certificates certify.
// Verifiers recompute it from a proof's folded root plus the served
// counters and compare against the certified digest.
//
//hammerlint:deterministic
func StateDigestFrom(version, opaque uint64, merkleRoot types.Digest) types.Digest {
	var counters [16]byte
	binary.BigEndian.PutUint64(counters[:8], version)
	binary.BigEndian.PutUint64(counters[8:], opaque)
	return types.HashBytes(counters[:], merkleRoot[:])
}

// FrozenKV is an immutable snapshot handle over the ledger: proofs and reads
// against a fixed root, unaffected by further applies.
type FrozenKV struct {
	tree            *merkle.Tree
	version, opaque uint64
	// gen is the Freeze of its ledger that cut the view. touched lists the
	// keys written since the Freeze before it, when tracked (see
	// KVState.touched); the checkpoint writer consumes the list.
	gen     uint64
	touched [][]byte
	tracked bool
}

// Root returns the frozen state digest (same formula as KVState.Root).
func (f *FrozenKV) Root() types.Digest {
	return StateDigestFrom(f.version, f.opaque, f.tree.Root())
}

// MerkleRoot returns the frozen tree root.
func (f *FrozenKV) MerkleRoot() types.Digest { return f.tree.Root() }

// Counters returns the frozen op counters.
func (f *FrozenKV) Counters() (version, opaque uint64) { return f.version, f.opaque }

// Prove returns a proof for key against the frozen root.
func (f *FrozenKV) Prove(key []byte) merkle.Proof { return f.tree.Prove(key) }

// Get reads a key from the frozen state.
func (f *FrozenKV) Get(key []byte) (value []byte, version uint64, ok bool) {
	return f.tree.Get(key)
}

// kvPair is one ledger cell on its way into a snapshot: the value and the
// (global) op version that last wrote it, so the ledger's digest commits to
// write order, not only final values.
type kvPair struct {
	key, value []byte
	version    uint64
}

// KV snapshot blob framing. Any first byte other than the magic was a gob
// stream until that generation was retired: a format revision takes the next
// version up and never reuses the first byte.
const (
	kvSnapshotMagic  = 0x00
	kvSnapshotWireV1 = 0x01

	// _kvPairMinWire is one encoded pair from below: two 1-byte length
	// prefixes plus the fixed 8-byte version.
	_kvPairMinWire = 10
)

// Snapshot serialises the frozen state: the whole ledger as it was at the
// Freeze. It reads the handle only, so it runs beside further applies
// to the live ledger: the executor's checkpoint writer encodes a view this
// way, off its lock, when it cannot merge the view's writes into the
// previous checkpoint's bytes (see checkpointBody).
//
//hammerlint:deterministic
func (f *FrozenKV) Snapshot() []byte {
	return encodeKV(f.tree, f.version, f.opaque)
}

// Release hands a view Freeze returned back to the ledger, which then writes
// the nodes it shared in place again — unless the ledger was frozen since or
// restored. The caller must be done with f.
func (s *KVState) Release(f *FrozenKV) { s.tree.Release(f.tree) }

// encodeKV is the KV snapshot encoding of one tree and its op counters. The
// encoding is deterministic: equal states yield equal bytes on every
// validator (pairs are key-sorted; the op counters are explicit fields).
//
//hammerlint:deterministic
func encodeKV(tree *merkle.Tree, version, opaque uint64) []byte {
	pairs := make([]kvPair, 0, tree.Len())
	total := 0
	tree.Walk(func(k, v []byte, ver uint64) bool {
		pairs = append(pairs, kvPair{key: k, value: v, version: ver})
		total += len(k) + len(v)
		return true
	})
	slices.SortFunc(pairs, func(a, b kvPair) int { return bytes.Compare(a.key, b.key) })
	buf := make([]byte, 0, total+len(pairs)*12+32)
	buf = append(buf, kvSnapshotMagic, kvSnapshotWireV1)
	buf = wire.AppendU64(buf, version)
	buf = wire.AppendU64(buf, opaque)
	buf = wire.AppendUvarint(buf, uint64(len(pairs)))
	for i := range pairs {
		buf = wire.AppendBytes(buf, pairs[i].key)
		buf = wire.AppendBytes(buf, pairs[i].value)
		buf = wire.AppendU64(buf, pairs[i].version)
	}
	return buf
}

// follows reports whether f's touched list leads from the view its ledger
// froze at gen: the Freeze immediately before f's.
func (f *FrozenKV) follows(gen uint64) bool {
	return f.tracked && gen != 0 && gen+1 == f.gen
}

// kvEdit is one touched key's cell in a frozen view: its value and version,
// or its absence.
type kvEdit struct {
	kvPair
	live bool
}

// edits returns f's touched keys sorted and deduplicated, each with its cell
// in f, plus an upper bound on the bytes the live ones encode to. It sorts
// the list in place.
func (f *FrozenKV) edits() ([]kvEdit, int) {
	keys := f.touched
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	edits := make([]kvEdit, len(keys))
	size := 0
	for i, k := range keys {
		v, ver, ok := f.tree.Get(k)
		edits[i] = kvEdit{kvPair{key: k, value: v, version: ver}, ok}
		if ok {
			size += len(k) + len(v) + 2*binary.MaxVarintLen64 + 8
		}
	}
	return edits, size
}

// appendKVMerged appends the KV snapshot encoding of f to dst, made from base
// — the encoding of the view its ledger froze just before f (f.follows) — and
// the edits of the keys written in between: every run of untouched cells is
// copied in one piece, and each touched cell is replaced, inserted or
// dropped. One pass over base plus O(d log d) for d touched keys, where
// encodeKV walks the trie and sorts all n keys; the bytes are encodeKV's.
//
//hammerlint:deterministic
func (f *FrozenKV) appendKVMerged(dst, base []byte, edits []kvEdit) []byte {
	dst = append(dst, kvSnapshotMagic, kvSnapshotWireV1)
	dst = wire.AppendU64(dst, f.version)
	dst = wire.AppendU64(dst, f.opaque)
	dst = wire.AppendUvarint(dst, uint64(f.tree.Len()))
	// base is this writer's own output, so its framing is not re-checked.
	_, n := binary.Uvarint(base[2+16:])
	cells := base[2+16+n:]
	at, run := 0, 0 // the next cell to look at; the first one not copied yet
	for i := range edits {
		e := &edits[i]
		found, next := false, 0
		for at < len(cells) {
			var key []byte
			key, next = kvCellAt(cells, at)
			if c := bytes.Compare(key, e.key); c >= 0 {
				found = c == 0
				break
			}
			at = next
		}
		dst = append(dst, cells[run:at]...)
		if found {
			at = next
		}
		run = at
		if e.live {
			dst = wire.AppendBytes(dst, e.key)
			dst = wire.AppendBytes(dst, e.value)
			dst = wire.AppendU64(dst, e.version)
		}
	}
	return append(dst, cells[run:]...)
}

// kvCellAt returns the key of the encoded pair starting at cells[at] and the
// offset of the pair after it.
func kvCellAt(cells []byte, at int) (key []byte, next int) {
	kl, n := binary.Uvarint(cells[at:])
	at += n
	key = cells[at : at+int(kl)]
	at += int(kl)
	vl, n := binary.Uvarint(cells[at:])
	return key, at + n + int(vl) + 8
}

// Restore replaces the ledger with a Snapshot's. Decoding and tree
// rebuilding happen into fresh structures, so a corrupt snapshot leaves the
// previous state untouched. Keys and values are copied out of the blob (the tree holds its
// inputs by reference, and the blob is a transient transfer buffer). The
// rebuild is the batch recomputation of the Merkle root — the install path's
// digest check compares it against the incrementally maintained root the
// snapshot was cut under.
func (s *KVState) Restore(data []byte) error {
	if len(data) < 2 || data[0] != kvSnapshotMagic || data[1] != kvSnapshotWireV1 {
		return fmt.Errorf("execution: unknown KV snapshot framing")
	}
	r := wire.NewReader(data[2:])
	version := r.U64()
	opaque := r.U64()
	n := r.Count(_kvPairMinWire)
	tree := merkle.New()
	var prev []byte
	for i := 0; i < n; i++ {
		key := r.BytesCopy()
		value := r.BytesCopy()
		ver := r.U64()
		if r.Err() != nil {
			break
		}
		// One encoding per state: keys strictly ascending, so no pair is out
		// of order and none repeats — the order the checkpoint writer's merge
		// assumes of the bytes it merges into.
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("execution: decoding KV snapshot: key %d is not above the one before it", i)
		}
		prev = key
		tree.Insert(key, value, ver)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("execution: decoding KV snapshot: %w", err)
	}
	s.tree = tree
	s.version = version
	s.opaque = opaque
	// The writes listed since the last Freeze no longer lead from its view.
	s.touched, s.untracked = nil, true
	return nil
}
