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
// sync path (the pull for a missing parent, the catch-up pull, the progress
// pull, pending or stuck) used to be able to unicast to self — a wasted
// message that also inflated SyncRequests. Now none of them produce any
// unicast at all.
func TestLoneValidatorNeverSyncsWithItself(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)

	// Certificates missing parents (corrupt input), one far above the DAG,
	// one that pends, trigger the request paths.
	for _, c := range []*Certificate{ghostCert(1, 20, 0, 1), ghostCert(1, 5, 0, 2)} {
		out := &Output{}
		eng.onCertificate(c, 0, out)
		assertNoSelfUnicast(t, out, 0)
		if len(out.Unicasts) != 0 {
			t.Fatalf("lone validator sent %d sync unicasts", len(out.Unicasts))
		}
	}
	if eng.SyncBacklog() != 1 {
		t.Fatalf("backlog %d, want the near certificate pending", eng.SyncBacklog())
	}

	// Progress timer, with pending state and stuck: the n>1 guard already
	// existed; re-assert it.
	for firing := int64(1); firing <= 2; firing++ {
		out := eng.OnTimer(Timer{Kind: TimerProgress}, firing)
		assertNoSelfUnicast(t, out, 0)
		if len(out.Unicasts) != 0 {
			t.Fatal("lone validator progress pull must not send requests")
		}
	}
	if eng.Stats().SyncRequests != 0 {
		t.Fatalf("SyncRequests = %d, want 0 (nothing was sent)", eng.Stats().SyncRequests)
	}
}

// TestTwoValidatorSyncTargetsPeer: on a 2-validator committee, every sync
// path must address the one peer, whatever the hinted source.
func TestTwoValidatorSyncTargetsPeer(t *testing.T) {
	committee, err := types.NewEqualStakeCommittee(2)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newTraceEngine(t, committee, nil)

	// Pend ghost certs of both sources, half claiming ourselves as the
	// source (a forgery hint must not bounce back), and one far above.
	var outs []*Output
	for salt := byte(0); salt < 8; salt++ {
		src := types.ValidatorID(salt % 2)
		out := &Output{}
		eng.onCertificate(ghostCert(2, types.Round(1+salt), src, salt), int64(salt), out)
		outs = append(outs, out)
	}
	far := &Output{}
	eng.onCertificate(ghostCert(2, 40, 0, 9), 0, far)
	outs = append(outs, far)
	// The progress watchdog, stuck or not, pulls for what pends.
	for firing := int64(1); firing <= 2; firing++ {
		outs = append(outs, eng.OnTimer(Timer{Kind: TimerProgress}, firing))
	}
	pulls := 0
	for _, out := range outs {
		assertNoSelfUnicast(t, out, 0)
		for _, u := range out.Unicasts {
			if u.To != 1 {
				t.Fatalf("sync target = %s, want v1", u.To)
			}
			pulls++
		}
	}
	if pulls == 0 {
		t.Fatal("pending parents must be pulled from the peer")
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
