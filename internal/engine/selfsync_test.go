package engine

import (
	"testing"

	"hammerhead/internal/types"
)

// ghostCert builds a quorum-voted certificate whose parent edge resolves
// nowhere, for a committee of size n.
func ghostCert(n int, round types.Round, source types.ValidatorID, salt byte) *Certificate {
	c := &Certificate{Header: Header{
		Round:  round,
		Source: source,
		Edges:  []types.Digest{types.HashBytes([]byte{salt, 0xAB, byte(round)})},
	}}
	for j := 0; j < n; j++ {
		c.Votes = append(c.Votes, VoteSig{Voter: types.ValidatorID(j)})
	}
	return c
}

func assertNoSelfUnicast(t *testing.T, out *Output, self types.ValidatorID) {
	t.Helper()
	for _, u := range out.Unicasts {
		if u.To == self {
			t.Fatalf("sync message %s unicast to self", u.Msg)
		}
	}
}

// TestLoneValidatorNeverSyncsWithItself: on a 1-validator committee every
// sync path (parent request, range sync, resync rotation, progress pull)
// used to be able to unicast to self — a wasted message that also inflated
// SyncRequests. Now none of them produce any unicast at all.
func TestLoneValidatorNeverSyncsWithItself(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)

	// A pending certificate (corrupt input) triggers the request paths.
	out := &Output{}
	eng.onCertificate(ghostCert(1, 20, 0, 1), 0, out)
	assertNoSelfUnicast(t, out, 0)
	if len(out.Unicasts) != 0 {
		t.Fatalf("lone validator sent %d sync unicasts", len(out.Unicasts))
	}

	// Resync timer with pending state.
	out = eng.OnTimer(Timer{Kind: TimerResync}, 1)
	assertNoSelfUnicast(t, out, 0)
	if len(out.Unicasts) != 0 {
		t.Fatal("lone validator resync must not send requests")
	}

	// Progress timer: the n>1 guard already existed; re-assert it.
	out = eng.OnTimer(Timer{Kind: TimerProgress}, 2)
	assertNoSelfUnicast(t, out, 0)
	if eng.Stats().SyncRequests != 0 {
		t.Fatalf("SyncRequests = %d, want 0 (nothing was sent)", eng.Stats().SyncRequests)
	}
}

// TestTwoValidatorSyncTargetsPeer: on a 2-validator committee, every sync
// path must address the one peer, regardless of digest prefixes or the
// hinted source.
func TestTwoValidatorSyncTargetsPeer(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(2)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)

	// Pend ghost certs with varied digest first-bytes so the resync
	// digest-prefix rotation exercises both residues, including one whose
	// claimed source is ourselves (a forgery hint must not bounce back).
	for salt := byte(0); salt < 8; salt++ {
		src := types.ValidatorID(salt % 2)
		out := &Output{}
		eng.onCertificate(ghostCert(2, types.Round(10+salt), src, salt), int64(salt), out)
		assertNoSelfUnicast(t, out, 0)
	}
	out := eng.OnTimer(Timer{Kind: TimerResync}, 100)
	assertNoSelfUnicast(t, out, 0)
	if len(out.Unicasts) == 0 {
		t.Fatal("resync with pending parents must request from the peer")
	}
	for _, u := range out.Unicasts {
		if u.To != 1 {
			t.Fatalf("resync target = %s, want v1", u.To)
		}
	}
}

// TestSyncPeerSelection pins the helpers' contract: syncPeer takes a usable
// hint, and nextPeer walks the members after the given one, mod n, skipping
// self.
func TestSyncPeerSelection(t *testing.T) {
	committee4, _ := types.NewEqualStakeCommittee(4)
	eng, _ := newTraceEngine(t, committee4, nil)
	if got, ok := eng.syncPeer(2); !ok || got != 2 {
		t.Fatalf("syncPeer(2) = (%v,%v), want (2,true)", got, ok)
	}
	if got, ok := eng.syncPeer(0); !ok || got == 0 {
		t.Fatalf("syncPeer(self) = (%v,%v), want a peer", got, ok)
	}
	for after, want := range []types.ValidatorID{1, 2, 3, 1} {
		if got, ok := eng.nextPeer(types.ValidatorID(after)); !ok || got != want {
			t.Fatalf("nextPeer(%d) = (%v,%v), want (%v,true)", after, got, ok, want)
		}
	}
	committee1, _ := types.NewEqualStakeCommittee(1)
	lone, _ := newTraceEngine(t, committee1, nil)
	if _, ok := lone.syncPeer(0); ok {
		t.Fatal("lone committee must report no sync peer")
	}
	if _, ok := lone.nextPeer(0); ok {
		t.Fatal("lone committee must report no next peer")
	}
}
