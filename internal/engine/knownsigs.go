package engine

import (
	"bytes"
	"sync"

	"hammerhead/internal/crypto"
	"hammerhead/internal/types"
)

// knownSigsPerValidator sizes a knownSigs table: entries per committee
// member. A validator adds about 2(n-1) entries a round — each peer's header
// signature and its own vote for that header — and a round's certificates
// arrive within a round or two of its headers, so eight per member keep
// about four rounds.
const knownSigsPerValidator = 8

// knownSigs remembers signatures this process has already verified or made
// itself: for a (signer, digest) pair, the exact signature bytes. A
// certificate vote whose bytes match an entry counts toward the quorum
// without a second public-key operation (see verifyQuorumVotes); any other
// vote is verified as before, so a miss costs one verification and decides
// nothing.
//
// Two things add entries: a header signature that verified (the origin's
// vote in that header's certificate is the header signature, see
// adoptHeader), and the vote this validator signs for a peer's header. The
// table holds a fixed number of entries and evicts the oldest first. It
// saves work and decides nothing: that a message passed the pre-verify
// stage travels with the message (Checked), because a sync response or a
// queued backlog can evict its entries before the engine reads it.
//
// One table is shared by a validator's pre-verify workers and its engine
// goroutine; a mutex guards it. The nil table knows nothing and keeps
// nothing.
type knownSigs struct {
	mu sync.Mutex
	// index maps a (signer, digest) pair to its slot in ring; ring holds the
	// entries in insertion order, and next is the slot the next new entry
	// takes, evicting whatever held it.
	index map[sigKey]int // guarded by mu
	ring  []knownSig     // guarded by mu
	next  int            // guarded by mu
}

type sigKey struct {
	signer types.ValidatorID
	digest types.Digest
}

type knownSig struct {
	key  sigKey
	used bool
	// sig is a copy: a decoded signature aliases its whole network frame.
	sig []byte
}

// newKnownSigs returns an empty table sized for a committee of n.
func newKnownSigs(n int) *knownSigs {
	size := knownSigsPerValidator * max(n, 1)
	return &knownSigs{index: make(map[sigKey]int, size), ring: make([]knownSig, size)}
}

// add records sig as signer's verified (or own) signature over digest. Call
// it only after the signature verified, or for a signature this process made.
func (k *knownSigs) add(signer types.ValidatorID, digest types.Digest, sig crypto.Signature) {
	if k == nil {
		return
	}
	key := sigKey{signer: signer, digest: digest}
	k.mu.Lock()
	defer k.mu.Unlock()
	if i, ok := k.index[key]; ok {
		k.ring[i].sig = append(k.ring[i].sig[:0], sig...)
		return
	}
	slot := &k.ring[k.next]
	if slot.used {
		delete(k.index, slot.key)
	}
	slot.key, slot.used = key, true
	slot.sig = append(slot.sig[:0], sig...)
	k.index[key] = k.next
	k.next = (k.next + 1) % len(k.ring)
}

// markKnown adds to acc the voters of votes, which are distinct, whose
// signature over digest is an entry, byte for byte, and reports how many it
// added. It takes the lock once for the whole certificate.
func (k *knownSigs) markKnown(digest types.Digest, votes []VoteSig, acc *types.StakeAccumulator) int {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	known := 0
	for _, vs := range votes {
		i, ok := k.index[sigKey{signer: vs.Voter, digest: digest}]
		if ok && bytes.Equal(k.ring[i].sig, vs.Signature) {
			acc.Add(vs.Voter)
			known++
		}
	}
	return known
}

// len reports the number of entries held: never more than the size
// newKnownSigs gave the table.
func (k *knownSigs) len() int {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.index)
}
