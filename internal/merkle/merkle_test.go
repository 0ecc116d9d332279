package merkle

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hammerhead/internal/types"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

// buildTree inserts n entries with versions 1..n.
func buildTree(n int) *Tree {
	t := New()
	for i := 0; i < n; i++ {
		t.Insert(key(i), val(i), uint64(i+1))
	}
	return t
}

func TestInsertGetDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	ref := map[string][2]any{} // key -> {value, version}
	for op := 0; op < 5000; op++ {
		k := key(rng.Intn(400))
		switch rng.Intn(3) {
		case 0, 1:
			v := val(op)
			tr.Insert(k, v, uint64(op))
			ref[string(k)] = [2]any{v, uint64(op)}
		case 2:
			got := tr.Delete(k)
			_, want := ref[string(k)]
			if got != want {
				t.Fatalf("op %d: Delete(%q) = %v, want %v", op, k, got, want)
			}
			delete(ref, string(k))
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tr.Len(), len(ref))
		}
	}
	for k, want := range ref {
		v, ver, ok := tr.Get([]byte(k))
		if !ok || !bytes.Equal(v, want[0].([]byte)) || ver != want[1].(uint64) {
			t.Fatalf("Get(%q) = (%q, %d, %v), want (%q, %d, true)", k, v, ver, ok, want[0], want[1])
		}
	}
	if _, _, ok := tr.Get([]byte("never-inserted")); ok {
		t.Fatal("Get of absent key reported present")
	}
}

// TestRootMatchesBatchRebuild pins the incremental-vs-batch property: a tree
// maintained through interleaved inserts, overwrites and deletes has the
// exact root of a tree batch-built from the surviving entries — in any
// insertion order.
func TestRootMatchesBatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	ref := map[string]struct {
		v   []byte
		ver uint64
	}{}
	for op := 0; op < 3000; op++ {
		k := key(rng.Intn(300))
		if rng.Intn(4) == 0 {
			tr.Delete(k)
			delete(ref, string(k))
		} else {
			v := val(op)
			tr.Insert(k, v, uint64(op))
			ref[string(k)] = struct {
				v   []byte
				ver uint64
			}{v, uint64(op)}
		}
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	// Batch-build in sorted order and in a shuffled order: same root.
	sort.Strings(keys)
	batch := New()
	for _, k := range keys {
		e := ref[k]
		batch.Insert([]byte(k), e.v, e.ver)
	}
	if batch.Root() != tr.Root() {
		t.Fatalf("incremental root %s != batch root %s", tr.Root(), batch.Root())
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	shuffled := New()
	for _, k := range keys {
		e := ref[k]
		shuffled.Insert([]byte(k), e.v, e.ver)
	}
	if shuffled.Root() != tr.Root() {
		t.Fatalf("shuffled batch root %s != incremental root %s", shuffled.Root(), tr.Root())
	}
}

func TestDeleteRestoresRoot(t *testing.T) {
	tr := buildTree(100)
	before := tr.Root()
	tr.Insert([]byte("ephemeral"), []byte("x"), 999)
	if tr.Root() == before {
		t.Fatal("insert did not change root")
	}
	if !tr.Delete([]byte("ephemeral")) {
		t.Fatal("delete failed")
	}
	if tr.Root() != before {
		t.Fatalf("root after insert+delete %s != original %s", tr.Root(), before)
	}
	if tr.Root() == EmptyRoot {
		t.Fatal("non-empty tree has EmptyRoot")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Root() != EmptyRoot {
		t.Fatal("empty tree root != EmptyRoot")
	}
	p := tr.Prove([]byte("anything"))
	root, entry, err := p.Verify([]byte("anything"))
	if err != nil || entry.Found || root != EmptyRoot {
		t.Fatalf("empty-tree exclusion proof: root=%s found=%v err=%v", root, entry.Found, err)
	}
}

func TestProofInclusionExclusion(t *testing.T) {
	const n = 500
	tr := buildTree(n)
	root := tr.Root()
	for i := 0; i < n; i += 17 {
		p := tr.Prove(key(i))
		got, entry, err := p.Verify(key(i))
		if err != nil {
			t.Fatalf("key %d: verify error: %v", i, err)
		}
		if got != root {
			t.Fatalf("key %d: proof root %s != tree root %s", i, got, root)
		}
		if !entry.Found || !bytes.Equal(entry.Value, val(i)) || entry.Version != uint64(i+1) {
			t.Fatalf("key %d: entry = %+v", i, entry)
		}
	}
	for i := n; i < n+50; i++ {
		p := tr.Prove(key(i))
		got, entry, err := p.Verify(key(i))
		if err != nil {
			t.Fatalf("absent key %d: verify error: %v", i, err)
		}
		if got != root {
			t.Fatalf("absent key %d: proof root %s != tree root %s", i, got, root)
		}
		if entry.Found {
			t.Fatalf("absent key %d reported present", i)
		}
	}
}

// TestProofKeyMismatch pins that a valid proof for one key cannot be
// presented as an inclusion proof for another: verifying it under a
// different key either fails the root or downgrades to (at best) a correct
// exclusion.
func TestProofKeyMismatch(t *testing.T) {
	tr := buildTree(64)
	root := tr.Root()
	p := tr.Prove(key(3))
	got, entry, err := p.Verify(key(4)) // key(4) IS in the tree
	if err == nil && got == root && entry.Found {
		t.Fatal("proof for key 3 verified as inclusion of key 4")
	}
}

func TestFrozenTreeStable(t *testing.T) {
	tr := buildTree(200)
	frozen := tr.Freeze()
	root := frozen.Root()
	proof := frozen.Prove(key(5))
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), []byte("overwritten"), uint64(10000+i))
	}
	tr.Delete(key(5))
	if frozen.Root() != root {
		t.Fatal("frozen root changed under live mutation")
	}
	got, entry, err := proof.Verify(key(5))
	if err != nil || got != root || !entry.Found || !bytes.Equal(entry.Value, val(5)) {
		t.Fatalf("frozen proof invalidated by live mutation: root=%s found=%v err=%v", got, entry.Found, err)
	}
	if v, _, ok := frozen.Get(key(5)); !ok || !bytes.Equal(v, val(5)) {
		t.Fatal("frozen Get affected by live delete")
	}
}

func TestWalkVisitsAll(t *testing.T) {
	tr := buildTree(300)
	seen := map[string]bool{}
	tr.Walk(func(k, v []byte, ver uint64) bool {
		seen[string(k)] = true
		return true
	})
	if len(seen) != 300 {
		t.Fatalf("walk visited %d entries, want 300", len(seen))
	}
}

// mutateProof applies one targeted corruption to a proof copy.
func mutateProof(p Proof, mode int, pos int, b byte) Proof {
	c := Proof{Steps: append([]ProofStep(nil), p.Steps...)}
	if p.Leaf != nil {
		leaf := *p.Leaf
		leaf.Key = append([]byte(nil), p.Leaf.Key...)
		leaf.Value = append([]byte(nil), p.Leaf.Value...)
		c.Leaf = &leaf
	}
	switch mode % 6 {
	case 0: // flip a value byte
		if c.Leaf != nil && len(c.Leaf.Value) > 0 {
			c.Leaf.Value[pos%len(c.Leaf.Value)] ^= b | 1
		}
	case 1: // flip a key byte
		if c.Leaf != nil && len(c.Leaf.Key) > 0 {
			c.Leaf.Key[pos%len(c.Leaf.Key)] ^= b | 1
		}
	case 2: // bump the version
		if c.Leaf != nil {
			c.Leaf.Version += uint64(b) + 1
		}
	case 3: // truncate steps
		if len(c.Steps) > 0 {
			c.Steps = c.Steps[:pos%len(c.Steps)]
		}
	case 4: // corrupt a sibling hash
		if len(c.Steps) > 0 {
			c.Steps[pos%len(c.Steps)].Sibling[pos%32] ^= b | 1
		}
	case 5: // corrupt a bit index
		if len(c.Steps) > 0 {
			c.Steps[pos%len(c.Steps)].Bit ^= uint16(b) + 1
		}
	}
	return c
}

// TestTamperedProofsRejected drives every mutation mode deterministically.
func TestTamperedProofsRejected(t *testing.T) {
	tr := buildTree(256)
	root := tr.Root()
	for mode := 0; mode < 6; mode++ {
		for pos := 0; pos < 8; pos++ {
			p := tr.Prove(key(pos * 13))
			m := mutateProof(p, mode, pos, byte(pos*37+1))
			got, entry, err := m.Verify(key(pos * 13))
			if err == nil && got == root {
				// The only acceptable survival is a byte-identical entry
				// (mutation was a no-op on this proof shape).
				orig, _, _ := p.Verify(key(pos * 13))
				if orig != root || !entry.Found || !bytes.Equal(entry.Value, val(pos*13)) {
					t.Fatalf("mode %d pos %d: tampered proof verified against true root", mode, pos)
				}
			}
		}
	}
}

// FuzzMerkleProof asserts soundness under arbitrary byte-level corruption: a
// proof blob that decodes and folds to the true root must attest the true
// entry — malformed, truncated or wrong-key proofs never verify.
func FuzzMerkleProof(f *testing.F) {
	tr := buildTree(128)
	root := tr.Root()
	// Seed corpus: valid encoded proofs for present and absent keys.
	for _, i := range []int{0, 7, 127, 128, 500} {
		blob, err := json.Marshal(tr.Prove(key(i)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(i), blob)
	}
	f.Fuzz(func(t *testing.T, keySel uint16, blob []byte) {
		var p Proof
		if err := json.Unmarshal(blob, &p); err != nil {
			return // malformed encoding: rejected upstream
		}
		k := key(int(keySel) % 600)
		got, entry, err := p.Verify(k)
		if err != nil || got != root {
			return // rejected, as it should be for junk
		}
		// The proof verified against the true root: it must agree with the
		// actual tree contents for k.
		wantVal, wantVer, wantOK := tr.Get(k)
		if entry.Found != wantOK {
			t.Fatalf("forged presence: key %q found=%v want %v", k, entry.Found, wantOK)
		}
		if wantOK && (!bytes.Equal(entry.Value, wantVal) || entry.Version != wantVer) {
			t.Fatalf("forged entry for key %q: got (%q,%d) want (%q,%d)", k, entry.Value, entry.Version, wantVal, wantVer)
		}
	})
}

// flatRehash reproduces the pre-Merkle KVState root: a single digest over
// the sorted entry set — the O(n) baseline the incremental root replaces.
func flatRehash(entries map[string][]byte) types.Digest {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		parts = append(parts, []byte(k), entries[k])
	}
	return types.HashBytes(parts...)
}

// BenchmarkIncrementalRootVsFullRehash compares the cost of refreshing the
// state root after one write at 10k live keys: an insert plus a Root that
// re-hashes the one dirty path, against the old full rehash. No caller reads
// the root after every write any more (the executor reads it per
// checkpoint); this is the worst case for the lazy tree, kept for the
// comparison. Every insert gets a fresh value: the tree keeps it by
// reference.
func BenchmarkIncrementalRootVsFullRehash(b *testing.B) {
	const n = 10_000
	entries := make(map[string][]byte, n)
	tr := New()
	for i := 0; i < n; i++ {
		entries[string(key(i))] = val(i)
		tr.Insert(key(i), val(i), uint64(i+1))
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Insert(key(i%n), binary.BigEndian.AppendUint64(nil, uint64(i)), uint64(n+i))
			_ = tr.Root()
		}
	})
	b.Run("fullrehash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries[string(key(i%n))] = binary.BigEndian.AppendUint64(nil, uint64(i))
			_ = flatRehash(entries)
		}
	})
}

func BenchmarkProofGenerate(b *testing.B) {
	tr := buildTree(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Prove(key(i % 10_000))
	}
}

func BenchmarkProofVerify(b *testing.B) {
	tr := buildTree(10_000)
	proofs := make([]Proof, 64)
	for i := range proofs {
		proofs[i] = tr.Prove(key(i * 100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proofs[i%64].Verify(key((i % 64) * 100)); err != nil {
			b.Fatal(err)
		}
	}
}
